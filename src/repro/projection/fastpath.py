"""Fused parse → prune → serialize fast path.

The event pipeline (``parse_events → prune_events → write_events``) builds
an :class:`~repro.xmltree.events.Event` object for every node of the
*input* document — including every node of subtrees the projector is
about to discard.  Profiling shows parsing dominates the pipeline, so the
fast path fuses all three stages onto the scanner:

* one compiled regex is the tokenizer: each match is a run of plain
  character data followed by a plain start or end tag, split into name,
  attributes and the empty-element slash at C speed — one ``re.match``
  per token, no char-by-char scanning and no event objects;
* anything the regex does not match (entity references, comments,
  CDATA, processing instructions, a DOCTYPE, markup straddling a chunk
  edge or over the token limit, malformed markup) goes to one
  per-construct reader, :func:`_read_token`, which returns the same
  token shape, so tag handling exists once per loop;
* pruned subtrees are **bulk-skipped**: only a tag stack is maintained
  for well-formedness (tag nesting, attribute syntax, entity references,
  comment/CDATA termination are still checked) — no events and no
  attribute dicts are built;
* kept content is serialized straight back out with buffered writes;
* all keep/skip/filter decisions come from the same compiled
  :class:`~repro.projection.prunetable.PruneTable` as the event pruner,
  so both paths produce byte-identical output and identical
  :class:`~repro.projection.stats.PruneStats` (the property tests in
  ``tests/test_fastpath.py`` enforce this).

:meth:`FastPruner.write` is the markup-to-markup hot path;
:meth:`FastPruner.events` exposes the same fused traversal as an event
stream (pruned regions still bulk-skipped) for consumers like the
prune-while-loading tree builder.
"""

from __future__ import annotations

import re
import sys
from typing import IO, TYPE_CHECKING, Callable, Iterator

from repro.dtd.grammar import Grammar
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard
from repro.obs import get_tracer
from repro.projection.prunetable import PruneTable, TagPlan, compile_prune_table
from repro.projection.stats import PruneStats
from repro.xmltree.events import (
    Characters,
    Comment,
    Doctype,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartElement,
)
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE, Scanner, Source
from repro.xmltree.parser import EventParser, expand_entities, expand_entity
from repro.xmltree.serializer import WRITE_BUFFER_SIZE, escape_attribute, escape_text

# The scanner's name alphabet (ASCII subset + full non-ASCII passthrough)
# as a regex, so a whole tag read in bulk can be split in one match
# instead of per-character ``read_name`` calls.  Each position is one
# class, not an alternation of an ASCII class and ``[^\x00-\x7f]``, which
# matches faster; it is spelled as the ASCII characters it excludes,
# because a class ranging up to U+10FFFF takes ~10 ms to compile.
_NAME_START = r"[^\x00-\x39\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"  # A-Z a-z _ : non-ASCII
_NAME_CHAR = r"[^\x00-\x2c\x2f\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"  # also 0-9 . -
_NAME = _NAME_START + _NAME_CHAR + "*"
_ATTRIBUTES = r"(?:\s+" + _NAME + r"\s*=\s*(?:\"[^\"]*\"|'[^']*'))*"
_START_TAG_RE = re.compile(r"(" + _NAME + r")(" + _ATTRIBUTES + r")\s*\Z")
_ATTR_RE = re.compile(r"\s+(" + _NAME + r")\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_END_TAG_RE = re.compile(r"(" + _NAME + r")\s*\Z")
# Closing tag with its leading '/', as the skip loop reads it.
_CLOSE_TAG_RE = re.compile(r"/(" + _NAME + r")\s*\Z")
#: The tokenizer: plain character data (no ``<``, no ``&``) followed by a
#: plain end tag or start tag, in the groups ``(text, closing, tag,
#: attributes, slash)``.  Built from the same pieces as the per-construct
#: regexes above, it accepts a strict subset of what they accept and
#: splits it into the same groups; everything else is a miss.
_TOKEN_RE = re.compile(
    r"([^<&]*)<(?:/(" + _NAME + r")\s*"
    r"|(" + _NAME + r")(" + _ATTRIBUTES + r")\s*(/?))>"
)

#: What :func:`_read_token` returns for a CDATA section or processing
#: instruction it skipped unread inside a discarded subtree.
_SKIPPED_CDATA = Characters("")
_SKIPPED_PI = ProcessingInstruction("", "")


def _read_text_run(scanner: Scanner) -> str:
    """One character-data run (entity references expanded), mirroring
    ``EventParser._parse_text``."""
    pieces: list[str] = []
    while True:
        pieces.append(scanner.read_until_any("<&"))
        char = scanner.peek()
        if char == "" or char == "<":
            return "".join(pieces)
        scanner.advance()  # '&'
        name = scanner.read_until(";", "entity reference")
        pieces.append(expand_entity(name, scanner))


def _skip_text_run(scanner: Scanner) -> bool:
    """Consume one character-data run without materialising it; entity
    references are still validated.  Returns whether the run was
    non-empty (every reference expands to at least one character)."""
    saw = False
    while True:
        if scanner.skip_until_any("<&"):
            saw = True
        if scanner.peek() != "&":
            return saw
        scanner.advance()
        name = scanner.read_until(";", "entity reference")
        expand_entity(name, scanner)
        saw = True


def _toplevel_text(scanner: Scanner) -> None:
    """Text outside the root element: only whitespace (possibly spelled
    as character references) is allowed."""
    text = _read_text_run(scanner)
    if text.strip():
        raise scanner.error("character data outside the root element")


def _read_token(
    scanner: Scanner,
    helper: EventParser | None,
    depth: int,
    keep_text: bool,
    skipping: bool = False,
    seen_root: bool = True,
) -> tuple:
    """Read one token the hard way, construct by construct: what a
    :data:`_TOKEN_RE` miss leaves to the scanner's bulk readers.

    Returns the regex's groups plus one field, ``(text, closing, tag,
    attributes, slash, misc)``.  ``text`` is the character data before the
    construct: the string (entity references expanded) when
    ``keep_text``, otherwise whether there was any.  ``misc`` is the
    :class:`Comment`, :class:`ProcessingInstruction`, :class:`Doctype` or
    (for a CDATA section) :class:`Characters` event; a token with neither
    a tag nor ``misc`` is the end of the input.  ``depth`` 0 means
    outside the root element, where only whitespace, misc markup and the
    root itself may appear.  ``skipping`` reads a discarded subtree: CDATA
    and processing-instruction bodies are skipped unread (the
    :data:`_SKIPPED_CDATA`/:data:`_SKIPPED_PI` placeholders come back).
    """
    if depth:
        text = _read_text_run(scanner) if keep_text else _skip_text_run(scanner)
        if scanner.at_eof():
            return text, None, None, None, None, None
    else:
        text = ""
        while True:
            scanner.skip_whitespace()
            if scanner.at_eof():
                return text, None, None, None, None, None
            if scanner.peek() == "<":
                break
            _toplevel_text(scanner)
    scanner.advance()  # '<' — text runs stop only at '<' or EOF
    char = scanner.peek()
    if char == "/":
        if skipping:
            raw = scanner.read_tag_content("closing tag")  # includes '/'
            match = _CLOSE_TAG_RE.match(raw)
            if match is None:
                raise scanner.error(f"malformed closing tag <{raw[:20]}>")
        else:
            scanner.advance()
            raw = scanner.read_tag_content("closing tag")
            match = _END_TAG_RE.match(raw)
            if match is None:
                raise scanner.error(f"malformed closing tag </{raw[:20]}>")
        return text, match.group(1), None, None, None, None
    if char == "!":
        scanner.advance()
        if scanner.try_consume("--"):
            body = scanner.read_until("-->", "comment")
            if "--" in body:
                raise scanner.error("'--' not allowed inside a comment")
            return text, None, None, None, None, Comment(body)
        if scanner.try_consume("[CDATA["):
            if not depth:
                raise scanner.error("CDATA section outside the root element")
            if skipping:
                scanner.skip_until("]]>", "CDATA section")
                return text, None, None, None, None, _SKIPPED_CDATA
            body = scanner.read_until("]]>", "CDATA section")
            return text, None, None, None, None, Characters(body)
        if scanner.startswith("DOCTYPE"):
            if seen_root:
                raise scanner.error("DOCTYPE after the root element")
            assert helper is not None
            return text, None, None, None, None, helper._parse_doctype()
        raise scanner.error("unrecognised markup declaration")
    if char == "?":
        scanner.advance()
        target = scanner.read_name("processing-instruction target")
        if skipping:
            scanner.skip_until("?>", "processing instruction")
            return text, None, None, None, None, _SKIPPED_PI
        data = scanner.read_until("?>", "processing instruction").lstrip()
        return text, None, None, None, None, ProcessingInstruction(target, data)
    if seen_root and not depth:
        raise scanner.error("multiple root elements")
    raw = scanner.read_tag_content("start tag")
    empty = raw.endswith("/")
    content = raw[:-1] if empty else raw
    match = _START_TAG_RE.match(content)
    if match is None:
        raise scanner.error(f"malformed start tag <{content[:20]}>")
    return text, None, match.group(1), match.group(2), "/" if empty else "", None


def _governor(guard: "LimitGuard | None") -> tuple[Callable[[], None] | None, int]:
    """The guard as the token loops use it: the deadline tick, or ``None``
    when no deadline is set, and the depth bound as a plain integer the
    loops compare against inline (they call the guard only to raise).
    Token sizes are bounded by :meth:`Scanner.match_token` and the
    readers."""
    if guard is None:
        return None, sys.maxsize
    tick = guard.tick if guard.deadline_at is not None else None
    return tick, sys.maxsize if guard.max_depth is None else guard.max_depth


def _check_duplicates(scanner: Scanner, tag: str, names: list[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise scanner.error(f"duplicate attribute {name!r} on <{tag}>")
        seen.add(name)


class FastPruner:
    """Scanner-level pruning pipeline compiled from a prune table."""

    def __init__(
        self,
        grammar: Grammar,
        projector: frozenset[str] | set[str],
        prune_attributes: bool = True,
        stats: PruneStats | None = None,
        guard: "LimitGuard | None" = None,
    ) -> None:
        self.grammar = grammar
        self.table: PruneTable = compile_prune_table(
            grammar, frozenset(projector), prune_attributes
        )
        self.projector = self.table.projector
        self.stats = stats
        #: Per-pass resource guard (:mod:`repro.limits`): bounds depth —
        #: including inside bulk-skipped subtrees — plus token size, input
        #: size and wall clock via the scanner.  Not pickled: guards are
        #: per call, never per configuration.
        self.guard = guard

    def __reduce__(self):
        # Pickling ships only (grammar, projector, flag) — the compiled
        # table is rebuilt (and memoised per process) on the receiving
        # side, and per-document stats stay process-local.  This is what
        # lets repro.parallel validate the configuration once in the
        # parent and hand the same pruner to every worker.
        return (
            FastPruner,
            (self.grammar, self.projector, self.table.prune_attributes),
        )

    # -- markup to markup (the hot path) ---------------------------------

    def write(
        self,
        source: Source,
        sink: IO[str],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_size: int = WRITE_BUFFER_SIZE,
    ) -> int:
        """Prune ``source`` straight into ``sink``; returns characters
        written.  Output is byte-identical to the event pipeline's
        (``write_events(..., declaration=False)``)."""
        guard = self.guard
        tick, max_depth = _governor(guard)
        scanner = Scanner(source, chunk_size, guard=guard)
        match_token = scanner.match_token
        helper = EventParser(scanner)
        stats = self.stats
        table = self.table
        local = table.local
        by_tag = table.by_tag
        by_parent = table.by_parent

        out: list[str] = []
        out_length = 0
        written = 0
        #: Rendered ``"<tag attrs"`` of the last kept start tag, held back
        #: one step so content-free elements collapse to ``<tag/>`` exactly
        #: as the event serializer's one-event lookahead does.
        pending: str | None = None
        open_kept: list[tuple[str, TagPlan]] = []
        seen_root = False

        helper._parse_prolog()  # consumes an XML declaration if present

        while True:
            if tick is not None:
                tick()
            if open_kept:
                plan = open_kept[-1][1]
                token = match_token(_TOKEN_RE)
                if token is not None:
                    text, closing, tag, attrs_text, slash = token
                    misc = None
                else:
                    text, closing, tag, attrs_text, slash, misc = _read_token(
                        scanner, helper, len(open_kept), plan.text_kept
                    )
                if text:
                    if plan.text_kept:
                        if stats is not None:
                            stats.texts_in += 1
                            stats.texts_out += 1
                        if pending is not None:
                            out.append(pending)
                            out.append(">")
                            out_length += len(pending) + 1
                            pending = None
                        piece = escape_text(text)
                        if len(piece) >= buffer_size:
                            # A run already larger than the buffer goes to
                            # the sink directly — joining it into ``out``
                            # first would only copy it once more.
                            if out:
                                written += out_length
                                sink.write("".join(out))
                                out.clear()
                                out_length = 0
                            written += len(piece)
                            sink.write(piece)
                        else:
                            out.append(piece)
                            out_length += len(piece)
                    elif stats is not None:
                        stats.texts_in += 1
            else:
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, helper, 0, False, seen_root=seen_root
                )
            if closing is not None:
                if not open_kept:
                    raise scanner.error(f"closing tag </{closing}> with no open element")
                expected = open_kept.pop()[0]
                if expected != closing:
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
                if pending is not None:
                    out.append(pending)
                    out.append("/>")
                    out_length += len(pending) + 2
                    pending = None
                else:
                    piece = f"</{closing}>"
                    out.append(piece)
                    out_length += len(piece)
            elif tag is not None:
                if local:
                    plan = by_tag.get(tag)
                else:
                    parent = open_kept[-1][1].name if open_kept else None
                    plan = by_parent.get((parent, tag))
                if plan is None:
                    # Attribute syntax/entity errors still win over the
                    # undeclared-element error, exactly as the event
                    # pipeline's parser runs ahead of its pruner.
                    if attrs_text:
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                if plan.keep:
                    if attrs_text:
                        rendered, count_in, count_out = self._render_attributes(
                            scanner, tag, attrs_text, plan.prunable
                        )
                    else:
                        rendered, count_in, count_out = "", 0, 0
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count_in
                        stats.distinct_tags_in.add(tag)
                        stats.elements_out += 1
                        stats.attributes_out += count_out
                        stats.distinct_tags_out.add(tag)
                    if pending is not None:
                        out.append(pending)
                        out.append(">")
                        out_length += len(pending) + 1
                    markup = f"<{tag}{rendered}"
                    if slash:
                        out.append(markup)
                        out.append("/>")
                        out_length += len(markup) + 2
                        pending = None
                    else:
                        pending = markup
                        open_kept.append((tag, plan))
                        if len(open_kept) > max_depth:
                            guard.check_depth(len(open_kept))  # type: ignore[union-attr]
                else:
                    count = (
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                        if attrs_text
                        else 0
                    )
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count
                        stats.distinct_tags_in.add(tag)
                    if not slash:
                        self._skip_subtree(
                            scanner, tag, stats, len(open_kept), tick, max_depth
                        )
            elif misc is not None:
                kind = type(misc)
                if kind is Characters:  # a CDATA section
                    if stats is not None:
                        stats.texts_in += 1
                    if plan.text_kept:
                        if stats is not None:
                            stats.texts_out += 1
                        if pending is not None:
                            out.append(pending)
                            out.append(">")
                            out_length += len(pending) + 1
                            pending = None
                        piece = escape_text(misc.text)
                        if len(piece) >= buffer_size:
                            if out:
                                written += out_length
                                sink.write("".join(out))
                                out.clear()
                                out_length = 0
                            written += len(piece)
                            sink.write(piece)
                        else:
                            out.append(piece)
                            out_length += len(piece)
                elif kind is not Doctype:  # a DOCTYPE is validated, not copied
                    if pending is not None:
                        out.append(pending)
                        out.append(">")
                        out_length += len(pending) + 1
                        pending = None
                    if kind is Comment:
                        piece = f"<!--{misc.text}-->"
                    elif misc.data:
                        piece = f"<?{misc.target} {misc.data}?>"
                    else:
                        piece = f"<?{misc.target}?>"
                    out.append(piece)
                    out_length += len(piece)
            elif open_kept:
                raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
            else:
                break
            if out_length >= buffer_size:
                written += out_length
                sink.write("".join(out))
                out.clear()
                out_length = 0
        if not seen_root:
            raise scanner.error("document has no root element")
        if out:
            written += out_length
            sink.write("".join(out))
        tracer = get_tracer()
        if tracer.enabled:
            # Process-wide fused-scan counters (per-document quantities
            # travel on the caller's "prune" span via PruneStats).
            tracer.count("fastpath.documents")
            tracer.count("fastpath.chars_out", written)
            if stats is not None:
                tracer.count("fastpath.tags_scanned", stats.elements_in)
        return written

    # -- markup to events -------------------------------------------------

    def events(
        self, source: Source, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Event]:
        """The same fused traversal as an event stream: identical to
        ``prune_events(parse_events(source), ...)`` but pruned subtrees
        are bulk-skipped instead of parsed into events."""
        guard = self.guard
        tick, max_depth = _governor(guard)
        scanner = Scanner(source, chunk_size, guard=guard)
        match_token = scanner.match_token
        helper = EventParser(scanner)
        stats = self.stats
        table = self.table
        local = table.local
        open_kept: list[tuple[str, TagPlan]] = []
        seen_root = False

        yield helper._parse_prolog()

        while True:
            if tick is not None:
                tick()
            if open_kept:
                plan = open_kept[-1][1]
                token = match_token(_TOKEN_RE)
                if token is not None:
                    text, closing, tag, attrs_text, slash = token
                    misc = None
                else:
                    text, closing, tag, attrs_text, slash, misc = _read_token(
                        scanner, helper, len(open_kept), plan.text_kept
                    )
                if text:
                    if plan.text_kept:
                        if stats is not None:
                            stats.texts_in += 1
                            stats.texts_out += 1
                        yield Characters(text)
                    elif stats is not None:
                        stats.texts_in += 1
            else:
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, helper, 0, False, seen_root=seen_root
                )
            if closing is not None:
                if not open_kept:
                    raise scanner.error(f"closing tag </{closing}> with no open element")
                expected = open_kept.pop()[0]
                if expected != closing:
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
                yield EndElement(closing)
            elif tag is not None:
                if local:
                    plan = table.by_tag.get(tag)
                else:
                    parent = open_kept[-1][1].name if open_kept else None
                    plan = table.by_parent.get((parent, tag))
                if plan is None:
                    if attrs_text:
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                if plan.keep:
                    if attrs_text:
                        attributes, count_in = self._collect_attributes(
                            scanner, tag, attrs_text, plan.prunable
                        )
                    else:
                        attributes, count_in = {}, 0
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count_in
                        stats.distinct_tags_in.add(tag)
                        stats.elements_out += 1
                        stats.attributes_out += len(attributes)
                        stats.distinct_tags_out.add(tag)
                    yield StartElement(tag, attributes)
                    if slash:
                        yield EndElement(tag)
                    else:
                        open_kept.append((tag, plan))
                        if len(open_kept) > max_depth:
                            guard.check_depth(len(open_kept))  # type: ignore[union-attr]
                else:
                    count = (
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                        if attrs_text
                        else 0
                    )
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count
                        stats.distinct_tags_in.add(tag)
                    if not slash:
                        self._skip_subtree(
                            scanner, tag, stats, len(open_kept), tick, max_depth
                        )
            elif misc is not None:
                if type(misc) is Characters:  # a CDATA section
                    if stats is not None:
                        stats.texts_in += 1
                    if plan.text_kept:
                        if stats is not None:
                            stats.texts_out += 1
                        yield misc
                else:
                    yield misc
            elif open_kept:
                raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
            else:
                break
        if not seen_root:
            raise scanner.error("document has no root element")
        yield EndDocument()

    # -- attribute helpers -------------------------------------------------

    def _render_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str, prunable: frozenset[str]
    ) -> tuple[str, int, int]:
        """Serialize a kept element's attributes (filtered and
        re-escaped); returns ``(markup, attributes seen, attributes
        kept)``."""
        pieces: list[str] = []
        names: list[str] = []
        count_out = 0
        for match in _ATTR_RE.finditer(attrs_text):
            name = match.group(1)
            value = match.group(2)
            if value is None:
                value = match.group(3)
            names.append(name)
            if "&" in value:
                value = expand_entities(value, scanner)
            if name not in prunable:
                count_out += 1
                pieces.append(f' {name}="{escape_attribute(value)}"')
        if len(names) > 1:
            _check_duplicates(scanner, tag, names)
        return "".join(pieces), len(names), count_out

    def _collect_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str, prunable: frozenset[str]
    ) -> tuple[dict[str, str], int]:
        """Like :meth:`_render_attributes` but producing the (filtered)
        attribute dict for the event stream."""
        attributes: dict[str, str] = {}
        names: list[str] = []
        for match in _ATTR_RE.finditer(attrs_text):
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
            _check_duplicates(scanner, tag, names)
        return attributes, len(names)

    def _validate_skipped_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str
    ) -> int:
        """Well-formedness checks (entity validity, uniqueness) for a
        discarded element's attributes; returns how many there were."""
        names: list[str] = []
        for match in _ATTR_RE.finditer(attrs_text):
            names.append(match.group(1))
            value = match.group(2)
            if value is None:
                value = match.group(3)
            if "&" in value:
                expand_entities(value, scanner)  # validate references
        if len(names) > 1:
            _check_duplicates(scanner, tag, names)
        return len(names)

    # -- bulk skipping -----------------------------------------------------

    def _skip_subtree(
        self,
        scanner: Scanner,
        first_tag: str,
        stats: PruneStats | None,
        base_depth: int,
        tick: Callable[[], None] | None,
        max_depth: int,
    ) -> None:
        """Bulk-skip the content of a discarded element up to and
        including its end tag, maintaining only a tag stack for
        well-formedness and the stats counters the event path would have
        gathered.  ``base_depth`` is the kept-element nesting above this
        subtree, so the depth limit sees the document's true depth even
        inside discarded regions; ``tick`` and ``max_depth`` come from
        :func:`_governor`."""
        match_token = scanner.match_token
        open_tags = [first_tag]
        if base_depth + 1 > max_depth:
            self.guard.check_depth(base_depth + 1)  # type: ignore[union-attr]
        while True:
            if tick is not None:
                tick()
            token = match_token(_TOKEN_RE)
            if token is not None:
                text, closing, tag, attrs_text, slash = token
                misc = None
            else:
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, None, base_depth + len(open_tags), False, skipping=True
                )
            if text and stats is not None:
                stats.texts_in += 1
            if closing is not None:
                expected = open_tags.pop()
                if expected != closing:
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
                if not open_tags:
                    return
            elif tag is not None:
                count = (
                    self._validate_skipped_attributes(scanner, tag, attrs_text)
                    if attrs_text
                    else 0
                )
                if stats is not None:
                    stats.elements_in += 1
                    stats.attributes_in += count
                    stats.distinct_tags_in.add(tag)
                if not slash:
                    open_tags.append(tag)
                    if base_depth + len(open_tags) > max_depth:
                        self.guard.check_depth(base_depth + len(open_tags))  # type: ignore[union-attr]
            elif misc is not None:
                if misc is _SKIPPED_CDATA and stats is not None:
                    stats.texts_in += 1
            else:
                raise scanner.error(f"unclosed element <{open_tags[-1]}>")
