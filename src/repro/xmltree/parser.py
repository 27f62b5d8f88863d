"""Streaming XML parser: characters in, :mod:`~repro.xmltree.events` out.

The parser implements the well-formedness subset of XML 1.0 that the
paper's data model needs: elements, attributes, character data, CDATA
sections, comments, processing instructions, an XML declaration, a DOCTYPE
declaration (whose internal subset is captured verbatim for the DTD
parser), and the five predefined entities plus numeric character
references.

It is a generator: ``parse_events(source)`` yields events as the input is
consumed, reading the source in bounded chunks.  Consumers that need a tree
use :func:`repro.xmltree.builder.build_tree`; consumers that need constant
memory (the streaming pruner) work directly on the event stream.

Tags are read by one reader, :func:`_read_start_tag`/:func:`_read_end_tag`
plus :func:`_parse_attributes`, which the fused pruner
(:mod:`repro.projection.fastpath`) shares: both pipelines accept the same
tags and refuse the others with the same message, line and column.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator

from repro.errors import XMLSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard
from repro.xmltree.events import (
    Characters,
    Comment,
    Doctype,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from repro.xmltree.lexer import Scanner, Source

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}

# The tag grammar as regexes, so a tag read in bulk is split in one match.
# The fused pruner builds its token regexes from the same pieces.  White
# space is XML's S production: Python's ``\s`` would also take \x0b, \x0c
# and non-ASCII spaces.  The name alphabet is the scanner's (ASCII subset
# + full non-ASCII passthrough).  Each name position is one class, not an
# alternation of an ASCII class and ``[^\x00-\x7f]``, which matches
# faster; it is spelled as the ASCII characters it excludes, because a
# class ranging up to U+10FFFF takes ~10 ms to compile.
_S = r"[ \t\r\n]"
_NAME_START = r"[^\x00-\x39\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"  # A-Z a-z _ : non-ASCII
_NAME_CHAR = r"[^\x00-\x2c\x2f\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"  # also 0-9 . -
_NAME = _NAME_START + _NAME_CHAR + "*"
_ATTRIBUTES = (
    r"(?:" + _S + "+" + _NAME + _S + "*=" + _S + r"*(?:\"[^\"]*\"|'[^']*'))*"
)
_START_TAG_RE = re.compile(r"(" + _NAME + r")(" + _ATTRIBUTES + r")" + _S + r"*\Z")
_ATTR_RE = re.compile(
    _S + r"+(" + _NAME + r")" + _S + r"*=" + _S + r"*(?:\"([^\"]*)\"|'([^']*)')"
)
_END_TAG_RE = re.compile(r"(" + _NAME + r")" + _S + r"*\Z")


def _read_start_tag(scanner: Scanner) -> tuple[str, str, bool]:
    """Read a start tag from after its ``<`` through its ``>``: its name,
    its attribute text (for :func:`_parse_attributes`) and whether it is an
    empty-element tag.  The whole tag is one token to ``max_token_bytes``."""
    raw = scanner.read_tag_content("start tag")
    empty = raw.endswith("/")
    content = raw[:-1] if empty else raw
    match = _START_TAG_RE.match(content)
    if match is None:
        raise scanner.error(f"malformed start tag <{content[:20]}>")
    return match.group(1), match.group(2), empty


def _read_end_tag(scanner: Scanner) -> str:
    """Read an end tag from after its ``</`` through its ``>``: its name."""
    raw = scanner.read_tag_content("closing tag")
    match = _END_TAG_RE.match(raw)
    if match is None:
        raise scanner.error(f"malformed closing tag </{raw[:20]}>")
    return match.group(1)


def _parse_attributes(
    scanner: Scanner, tag: str, text: str, prunable: "frozenset[str]" = frozenset()
) -> tuple[dict[str, str], int]:
    """The attributes in the attribute text of ``tag``'s start tag, with
    references expanded, less the names in ``prunable``; and how many
    there were.  Errors are reported where the scanner stands (the end of
    the tag); a bad reference in any value wins over a repeated name."""
    attributes: dict[str, str] = {}
    names: list[str] = []
    for match in _ATTR_RE.finditer(text):
        name = match.group(1)
        value = match.group(2)
        if value is None:
            value = match.group(3)
        names.append(name)
        if "&" in value:
            value = expand_entities(value, scanner)
        if name not in prunable:
            attributes[name] = value
    if len(names) > 1:
        _check_unique(scanner, tag, names)
    return attributes, len(names)


def _check_unique(scanner: Scanner, tag: str, names: list[str]) -> None:
    """Refuse a start tag that repeats an attribute name."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise scanner.error(f"duplicate attribute {name!r} on <{tag}>")
        seen.add(name)


def expand_entities(raw: str, scanner: Scanner | None = None) -> str:
    """Expand predefined and numeric character references in ``raw``."""
    if "&" not in raw:
        return raw
    pieces: list[str] = []
    position = 0
    while True:
        amp = raw.find("&", position)
        if amp == -1:
            pieces.append(raw[position:])
            return "".join(pieces)
        pieces.append(raw[position:amp])
        semi = raw.find(";", amp + 1)
        if semi == -1:
            raise _entity_error(f"unterminated entity reference near {raw[amp:amp+12]!r}", scanner)
        name = raw[amp + 1 : semi]
        pieces.append(_expand_one(name, scanner))
        position = semi + 1


def expand_entity(name: str, scanner: Scanner | None = None) -> str:
    """Expand one entity/character reference name (without ``&``/``;``)."""
    return _expand_one(name, scanner)


def _expand_one(name: str, scanner: Scanner | None) -> str:
    if name.startswith("#x") or name.startswith("#X"):
        try:
            return chr(int(name[2:], 16))
        except ValueError:
            raise _entity_error(f"bad character reference &{name};", scanner) from None
    if name.startswith("#"):
        try:
            return chr(int(name[1:]))
        except ValueError:
            raise _entity_error(f"bad character reference &{name};", scanner) from None
    try:
        return _PREDEFINED_ENTITIES[name]
    except KeyError:
        raise _entity_error(f"unknown entity &{name};", scanner) from None


def _entity_error(message: str, scanner: Scanner | None) -> XMLSyntaxError:
    if scanner is not None:
        return scanner.error(message)
    return XMLSyntaxError(message)


class EventParser:
    """Pull parser over a :class:`Scanner`.

    Use via the module-level :func:`parse_events` in most cases.
    """

    def __init__(
        self,
        source: "Source | Scanner",
        chunk_size: int = 1 << 16,
        guard: "LimitGuard | None" = None,
    ) -> None:
        if isinstance(source, Scanner):
            self._scanner = source
            self._guard = guard if guard is not None else source.guard
        else:
            self._scanner = Scanner(source, chunk_size, guard=guard)
            self._guard = guard
        self._open_tags: list[str] = []
        self._seen_root = False

    # -- main loop --------------------------------------------------------

    def events(self) -> Iterator[Event]:
        scanner = self._scanner
        guard = self._guard
        yield self._parse_prolog()
        while True:
            if guard is not None:
                guard.tick()
            if not self._open_tags:
                scanner.skip_whitespace()
                if scanner.at_eof():
                    break
            elif scanner.at_eof():
                raise scanner.error(f"unclosed element <{self._open_tags[-1]}>")
            if scanner.peek() != "<":
                yield from self._parse_text()
                continue
            event = self._parse_markup()
            if event is not None:
                yield event
            if not self._open_tags and self._seen_root and self._at_trailer_end():
                break
        if self._open_tags:
            raise scanner.error(f"unclosed element <{self._open_tags[-1]}>")
        if not self._seen_root:
            raise scanner.error("document has no root element")
        yield EndDocument()

    def _at_trailer_end(self) -> bool:
        self._scanner.skip_whitespace()
        return self._scanner.at_eof()

    # -- prolog ------------------------------------------------------------

    def _parse_prolog(self) -> StartDocument:
        scanner = self._scanner
        version, encoding, standalone = "1.0", None, None
        if scanner.startswith("<?xml") and scanner.peek_at(5) in " \t\r\n?":
            scanner.expect("<?xml")
            declaration = scanner.read_until("?>", "XML declaration")
            attrs = _parse_pseudo_attributes(declaration, scanner)
            version = attrs.get("version", "1.0")
            encoding = attrs.get("encoding")
            if "standalone" in attrs:
                standalone = attrs["standalone"] == "yes"
        return StartDocument(version=version, encoding=encoding, standalone=standalone)

    def _parse_doctype(self) -> Doctype:
        scanner = self._scanner
        scanner.expect("DOCTYPE", "doctype declaration")
        scanner.skip_whitespace()
        name = scanner.read_name("doctype name")
        scanner.skip_whitespace()
        system_id = public_id = internal = None
        if scanner.startswith("SYSTEM"):
            scanner.expect("SYSTEM")
            scanner.skip_whitespace()
            system_id = self._parse_quoted("system identifier")
            scanner.skip_whitespace()
        elif scanner.startswith("PUBLIC"):
            scanner.expect("PUBLIC")
            scanner.skip_whitespace()
            public_id = self._parse_quoted("public identifier")
            scanner.skip_whitespace()
            system_id = self._parse_quoted("system identifier")
            scanner.skip_whitespace()
        if scanner.peek() == "[":
            scanner.advance()
            internal = scanner.read_until("]", "doctype internal subset")
            scanner.skip_whitespace()
        scanner.expect(">", "doctype declaration")
        return Doctype(name=name, system_id=system_id, public_id=public_id, internal_subset=internal)

    def _parse_quoted(self, context: str) -> str:
        scanner = self._scanner
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error(f"expected quoted {context}")
        scanner.advance()
        return scanner.read_until(quote, context)

    # -- markup ------------------------------------------------------------

    def _parse_markup(self) -> Event | None:
        scanner = self._scanner
        scanner.expect("<")
        char = scanner.peek()
        if char == "!":
            scanner.advance()
            if scanner.try_consume("--"):
                text = scanner.read_until("-->", "comment")
                if "--" in text:
                    raise scanner.error("'--' not allowed inside a comment")
                return Comment(text)
            if scanner.try_consume("[CDATA["):
                if not self._open_tags:
                    raise scanner.error("CDATA section outside the root element")
                text = scanner.read_until("]]>", "CDATA section")
                return Characters(text)
            if scanner.startswith("DOCTYPE"):
                if self._seen_root:
                    raise scanner.error("DOCTYPE after the root element")
                return self._parse_doctype()
            raise scanner.error("unrecognised markup declaration")
        if char == "?":
            scanner.advance()
            target = scanner.read_name("processing-instruction target")
            data = scanner.read_until("?>", "processing instruction").lstrip()
            return ProcessingInstruction(target, data)
        if char == "/":
            scanner.advance()
            tag = _read_end_tag(scanner)
            if not self._open_tags:
                raise scanner.error(f"closing tag </{tag}> with no open element")
            expected = self._open_tags.pop()
            if expected != tag:
                raise scanner.error(f"mismatched closing tag </{tag}>, expected </{expected}>")
            return EndElement(tag)
        return self._parse_start_tag()

    def _parse_start_tag(self) -> Event:
        scanner = self._scanner
        if self._seen_root and not self._open_tags:
            raise scanner.error("multiple root elements")
        tag, text, empty = _read_start_tag(scanner)
        attributes = _parse_attributes(scanner, tag, text)[0] if text else {}
        self._seen_root = True
        if empty:
            # An empty-element tag is surfaced as Start followed by End
            # so downstream consumers see a uniform stream.
            return _EmptyElement(tag, attributes)
        self._open_tags.append(tag)
        if self._guard is not None:
            self._guard.check_depth(len(self._open_tags))
        return StartElement(tag, attributes)

    # -- character data -------------------------------------------------------

    def _parse_text(self) -> Iterator[Event]:
        scanner = self._scanner
        pieces: list[str] = []
        while True:
            pieces.append(scanner.read_until_any("<&"))
            char = scanner.peek()
            if char == "" or char == "<":
                break
            scanner.advance()  # '&'
            name = scanner.read_until(";", "entity reference")
            pieces.append(_expand_one(name, scanner))
        text = "".join(pieces)
        if not self._open_tags:
            if text.strip():
                raise scanner.error("character data outside the root element")
            return
        if text:
            yield Characters(text)


class _EmptyElement(StartElement):
    """Marker subclass: a start event that must be immediately followed by
    its end event.  :func:`parse_events` flattens it."""


def parse_events(
    source: "Source | Scanner",
    chunk_size: int = 1 << 16,
    guard: "LimitGuard | None" = None,
) -> Iterator[Event]:
    """Parse ``source`` (a string, text-mode file object, or prepared
    :class:`Scanner`) into a stream of events.  Empty-element tags yield a
    Start/End pair.  ``guard`` (see :mod:`repro.limits`) bounds depth,
    token size, input size and wall clock."""
    parser = EventParser(source, chunk_size, guard=guard)
    for event in parser.events():
        if isinstance(event, _EmptyElement):
            yield StartElement(event.tag, event.attributes)
            yield EndElement(event.tag)
        else:
            yield event


def _parse_pseudo_attributes(text: str, scanner: Scanner) -> dict[str, str]:
    """Parse ``name="value"`` pairs inside an XML declaration."""
    attrs: dict[str, str] = {}
    position = 0
    length = len(text)
    while True:
        while position < length and text[position] in " \t\r\n":
            position += 1
        if position >= length:
            return attrs
        equals = text.find("=", position)
        if equals == -1:
            raise scanner.error("malformed XML declaration")
        name = text[position:equals].strip()
        position = equals + 1
        while position < length and text[position] in " \t\r\n":
            position += 1
        if position >= length or text[position] not in "'\"":
            raise scanner.error("malformed XML declaration")
        quote = text[position]
        closing = text.find(quote, position + 1)
        if closing == -1:
            raise scanner.error("malformed XML declaration")
        attrs[name] = text[position + 1 : closing]
        position = closing + 1
