"""XML serialization: documents or event streams back to markup text.

The streaming pruner composes ``parse_events → StreamingPruner → write_events``
to rewrite a file with constant memory, so the serializer has both a tree
entry point (:func:`serialize`) and an event entry point
(:func:`write_events`).
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator

from repro.xmltree.events import (
    Characters,
    Comment,
    EndElement,
    Event,
    ProcessingInstruction,
    StartElement,
)
from repro.xmltree.nodes import Document, Element, Node, Text


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted output."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def _start_tag(tag: str, attributes: dict[str, str], empty: bool) -> str:
    if attributes:
        attrs = "".join(f' {name}="{escape_attribute(value)}"' for name, value in attributes.items())
    else:
        attrs = ""
    return f"<{tag}{attrs}/>" if empty else f"<{tag}{attrs}>"


def node_markup(node: Node) -> Iterator[str]:
    """Yield markup fragments for a subtree, iteratively."""
    # Work list holds either nodes to open or closing-tag strings.
    work: list[Node | str] = [node]
    while work:
        item = work.pop()
        if isinstance(item, str):
            yield item
            continue
        if isinstance(item, Text):
            yield escape_text(item.value)
            continue
        assert isinstance(item, Element)
        if not item.children:
            yield _start_tag(item.tag, item.attributes, empty=True)
            continue
        yield _start_tag(item.tag, item.attributes, empty=False)
        work.append(f"</{item.tag}>")
        work.extend(reversed(item.children))


def serialize(document: Document | Node, declaration: bool = False) -> str:
    """Serialize a document (or bare subtree) to a string."""
    root = document.root if isinstance(document, Document) else document
    pieces: list[str] = []
    if declaration:
        pieces.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    pieces.extend(node_markup(root))
    return "".join(pieces)


def write_document(document: Document, sink: IO[str], declaration: bool = True) -> int:
    """Write a document to a text sink; returns characters written."""
    written = 0
    if declaration:
        written += sink.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    for piece in node_markup(document.root):
        written += sink.write(piece)
    return written


def event_markup(events: Iterable[Event]) -> Iterator[str]:
    """Convert an event stream to markup fragments.

    One event of lookahead collapses content-free Start/End pairs into
    empty-element tags, so the streamed output is byte-identical to the
    tree serializer's.
    """
    pending: StartElement | None = None
    for event in events:
        if pending is not None:
            if isinstance(event, EndElement) and event.tag == pending.tag:
                yield _start_tag(pending.tag, pending.attributes, empty=True)
                pending = None
                continue
            yield _start_tag(pending.tag, pending.attributes, empty=False)
            pending = None
        if isinstance(event, StartElement):
            pending = event
        elif isinstance(event, EndElement):
            yield f"</{event.tag}>"
        elif isinstance(event, Characters):
            yield escape_text(event.text)
        elif isinstance(event, Comment):
            yield f"<!--{event.text}-->"
        elif isinstance(event, ProcessingInstruction):
            data = f" {event.data}" if event.data else ""
            yield f"<?{event.target}{data}?>"
        # StartDocument / EndDocument / Doctype produce no output here.
    if pending is not None:
        yield _start_tag(pending.tag, pending.attributes, empty=False)


#: Flush threshold for buffered event writing: many small fragments are
#: joined into one string before hitting the sink, so the per-write cost
#: of text-mode file objects is paid once per ~64 KiB, not once per tag.
WRITE_BUFFER_SIZE = 1 << 16


def write_events(
    events: Iterable[Event],
    sink: IO[str],
    declaration: bool = True,
    buffer_size: int = WRITE_BUFFER_SIZE,
) -> int:
    """Stream an event sequence to a text sink (buffered); returns
    characters written."""
    written = 0
    if declaration:
        written += sink.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buffered: list[str] = []
    buffered_length = 0
    for piece in event_markup(events):
        buffered.append(piece)
        buffered_length += len(piece)
        if buffered_length >= buffer_size:
            written += sink.write("".join(buffered))
            buffered.clear()
            buffered_length = 0
    if buffered:
        written += sink.write("".join(buffered))
    return written
