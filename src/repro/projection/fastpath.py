"""Fused parse → prune → serialize fast path.

The event pipeline (``parse_events → StreamingPruner → write_events``) builds
an :class:`~repro.xmltree.events.Event` object for every node of the
*input* document — including every node of subtrees the projector is
about to discard.  Profiling shows parsing dominates the pipeline, so the
fast path fuses all three stages onto the scanner:

* one compiled regex is the tokenizer: each match is a run of plain
  character data followed by a plain start or end tag — or a whole
  text-only leaf element — split into name, attributes and the
  empty-element slash at C speed.  The loops iterate back-to-back matches
  over the buffered input (:meth:`Scanner.matches`), so a token costs no
  Python call, no char-by-char scanning and no event object; the
  scanner's position is committed only where something else reads on or
  an error quotes it.  A window of input without ``&`` is matched by a
  lean spelling of the same regex, which makes the same matches there
  and runs faster;
* anything the regex does not match (entity references, comments,
  CDATA, processing instructions, a DOCTYPE, markup straddling a chunk
  edge or over the token limit, malformed markup) goes to one
  per-construct reader, :func:`_read_token`, which returns the same
  token shape, so tag handling exists once per loop.  It reads tags with
  the event parser's tag reader (``_read_start_tag`` and ``_read_end_tag``
  in :mod:`repro.xmltree.parser`), so both pipelines refuse the same
  tags alike;
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
from repro.xmltree.parser import (
    _ATTR_RE,
    _ATTRIBUTES,
    _NAME,
    _NAME_CHAR,
    _S,
    EventParser,
    _check_unique,
    _parse_attributes,
    _read_end_tag,
    _read_start_tag,
    expand_entities,
    expand_entity,
)
from repro.xmltree.serializer import WRITE_BUFFER_SIZE, escape_attribute, escape_text

#: The tokenizer: plain character data (no ``<``, no ``&``) followed by a
#: plain end tag or start tag, in the groups ``(text, closing, tag,
#: attributes, slash, leaf)``.  A start tag followed by character data
#: without ``<`` or ``&`` and its own end tag (a backreference to the start
#: tag's name) is a *text-only leaf*, matched as one token with the text in
#: ``leaf``; ``leaf`` is ``None`` for every other token, and ``slash`` is
#: ``None`` when there is none.  Built from the same pieces as the tag
#: reader's regexes (:mod:`repro.xmltree.parser`), it accepts a strict
#: subset of what that reader accepts and splits it into the same groups
#: (a leaf read the hard way is two tokens: its start tag, then its text
#: and end tag); everything else is a miss.
_TOKEN_RE = re.compile(
    r"([^<&]*)<(?:/(" + _NAME + r")" + _S + r"*"
    r"|(" + _NAME + r")(" + _ATTRIBUTES + r")" + _S + r"*"
    r"(?:(/)|>([^<&]*)</\3(?!" + _NAME_CHAR + r")" + _S + r"*)?)>"
)
#: The lean tokenizer: :data:`_TOKEN_RE` with both text runs spelled
#: ``[^<]*``, which CPython's ``re`` scans in its single-character loop.
#: On text without ``&`` the two make the same matches, so
#: :meth:`Scanner.matches` serves it for every window that holds no ``&``;
#: a window with a reference keeps :data:`_TOKEN_RE`.
_LEAN_TOKEN_RE = re.compile(
    r"([^<]*)<(?:/(" + _NAME + r")" + _S + r"*"
    r"|(" + _NAME + r")(" + _ATTRIBUTES + r")" + _S + r"*"
    r"(?:(/)|>([^<]*)</\3(?!" + _NAME_CHAR + r")" + _S + r"*)?)>"
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
        scanner.advance()
        return text, _read_end_tag(scanner), None, None, None, None
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
    tag, attributes, empty = _read_start_tag(scanner)
    return text, None, tag, attributes, "/" if empty else "", None


def _governor(guard: "LimitGuard | None") -> tuple[Callable[[], None] | None, int]:
    """The guard as the token loops use it: the deadline tick, or ``None``
    when no deadline is set, and the depth bound as a plain integer the
    loops compare against inline (they call the guard only to raise).
    Token sizes are bounded by :meth:`Scanner.matches` and the readers."""
    if guard is None:
        return None, sys.maxsize
    tick = guard.tick if guard.deadline_at is not None else None
    return tick, sys.maxsize if guard.max_depth is None else guard.max_depth


def _commit(scanner: Scanner, match: "re.Match[str] | None") -> None:
    """Move the scanner past ``match``, the last token a loop took from
    :meth:`Scanner.matches`; ``None`` means the readers already did.  The
    loops commit only before they read on by other means and before an
    error that quotes the position."""
    if match is not None:
        scanner.consume_to(match.end())


def _commit_start_tag(
    scanner: Scanner, match: "re.Match[str] | None", leaf: "str | None"
) -> None:
    """:func:`_commit` up to the end of the start tag just taken, where its
    attribute errors are reported: for a leaf token, where its text
    begins."""
    if match is not None:
        scanner.consume_to(match.end() if leaf is None else match.start(6))


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
        helper = EventParser(scanner)
        table = self.table
        local = table.local
        by_tag = table.by_tag
        by_parent = table.by_parent
        # The PruneStats counters, added to ``self.stats`` once per pass.
        elements_in = elements_out = attributes_in = attributes_out = 0
        texts_in = texts_out = 0
        tags_in: set[str] = set()
        tags_out: set[str] = set()

        out: list[str] = []
        out_length = 0
        written = 0
        #: Rendered ``"<tag attrs"`` of the last kept start tag, held back
        #: one step so content-free elements collapse to ``<tag/>`` exactly
        #: as the event serializer's one-event lookahead does.
        pending: str | None = None
        open_kept: list[tuple[str, TagPlan]] = []
        plan: TagPlan | None = None  # of the innermost open kept element
        seen_root = False
        # Inside the root, tokens come from ``matches`` until a miss, which
        # the reader takes; ``match`` is the last one taken while the
        # scanner position lags behind it (see _commit).
        matches: Iterator[re.Match[str]] = iter(())
        match: re.Match[str] | None = None

        helper._parse_prolog()  # consumes an XML declaration if present

        while True:
            if tick is not None:
                tick()
            if open_kept:
                token = next(matches, None)
                if token is not None:
                    match = token
                    text, closing, tag, attrs_text, slash, leaf = token.groups()
                    misc = None
                else:
                    _commit(scanner, match)
                    match = None
                    text, closing, tag, attrs_text, slash, misc = _read_token(
                        scanner, helper, len(open_kept), plan.text_kept
                    )
                    leaf = None
                    if text and plan.text_kept:
                        # Expanded references can spell the '&' and '<'
                        # the token regex never matches; '>' is escaped
                        # below, as for every token.
                        text = text.replace("&", "&amp;").replace("<", "&lt;")
                    matches = scanner.matches(_TOKEN_RE, _LEAN_TOKEN_RE)
                if text:
                    texts_in += 1
                    if plan.text_kept:
                        texts_out += 1
                        if pending is not None:
                            out.append(pending)
                            out.append(">")
                            out_length += len(pending) + 1
                            pending = None
                        piece = text.replace(">", "&gt;")
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
            else:
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, helper, 0, False, seen_root=seen_root
                )
                leaf = None
            if closing is not None:
                if not open_kept:
                    raise scanner.error(f"closing tag </{closing}> with no open element")
                expected = open_kept.pop()[0]
                if expected != closing:
                    _commit(scanner, match)
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
                if open_kept:
                    plan = open_kept[-1][1]
                else:  # the root's end tag: the rest is read the hard way
                    _commit(scanner, match)
                    match = None
            elif tag is not None:
                if local:
                    child = by_tag.get(tag)
                else:
                    child = by_parent.get((plan.name if open_kept else None, tag))
                if child is None:
                    # Attribute syntax/entity errors still win over the
                    # undeclared-element error, exactly as the event
                    # pipeline's parser runs ahead of its pruner.
                    if attrs_text:
                        _commit_start_tag(scanner, match, leaf)
                        _parse_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                elements_in += 1
                tags_in.add(tag)
                if child.keep:
                    if attrs_text:
                        _commit_start_tag(scanner, match, leaf)
                        rendered, count_in, count_out = self._render_attributes(
                            scanner, tag, attrs_text, child.prunable
                        )
                        attributes_in += count_in
                        attributes_out += count_out
                    else:
                        rendered = ""
                    elements_out += 1
                    tags_out.add(tag)
                    if pending is not None:
                        out.append(pending)
                        out.append(">")
                        out_length += len(pending) + 1
                    markup = f"<{tag}{rendered}"
                    if leaf is not None:  # the whole element, emitted at once
                        if len(open_kept) + 1 > max_depth:
                            guard.check_depth(len(open_kept) + 1)  # type: ignore[union-attr]
                        if leaf:
                            texts_in += 1
                        if leaf and child.text_kept:
                            texts_out += 1
                            piece = f"{markup}>{leaf.replace('>', '&gt;')}</{tag}>"
                        else:
                            piece = markup + "/>"
                        out.append(piece)
                        out_length += len(piece)
                        pending = None
                    elif slash:
                        out.append(markup)
                        out.append("/>")
                        out_length += len(markup) + 2
                        pending = None
                    else:
                        pending = markup
                        open_kept.append((tag, child))
                        plan = child
                        if len(open_kept) > max_depth:
                            guard.check_depth(len(open_kept))  # type: ignore[union-attr]
                else:
                    if attrs_text:
                        if attrs_text.count("=") == 1 and "&" not in attrs_text:
                            attributes_in += 1  # one attribute, nothing to check
                        else:
                            _commit_start_tag(scanner, match, leaf)
                            attributes_in += _parse_attributes(
                                scanner, tag, attrs_text
                            )[1]
                    if leaf is not None:  # the whole element, skipped at once
                        if len(open_kept) + 1 > max_depth:
                            guard.check_depth(len(open_kept) + 1)  # type: ignore[union-attr]
                        if leaf:
                            texts_in += 1
                    elif not slash:
                        matches, match, skipped_elements, skipped_attributes, skipped_texts = (
                            self._skip_subtree(
                                scanner, matches, match, tag, tags_in, len(open_kept),
                                tick, max_depth,
                            )
                        )
                        if not open_kept:  # a skipped root: the rest is read the hard way
                            _commit(scanner, match)
                            match = None
                        elements_in += skipped_elements
                        attributes_in += skipped_attributes
                        texts_in += skipped_texts
            elif misc is not None:
                kind = type(misc)
                if kind is Characters:  # a CDATA section
                    texts_in += 1
                    if plan.text_kept:
                        texts_out += 1
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
        stats = self.stats
        if stats is not None:
            stats.elements_in += elements_in
            stats.elements_out += elements_out
            stats.attributes_in += attributes_in
            stats.attributes_out += attributes_out
            stats.texts_in += texts_in
            stats.texts_out += texts_out
            stats.distinct_tags_in |= tags_in
            stats.distinct_tags_out |= tags_out
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
        ``StreamingPruner(...).process(parse_events(source))`` but pruned
        subtrees are bulk-skipped instead of parsed into events.  The
        stats are complete when :class:`EndDocument` is yielded."""
        guard = self.guard
        tick, max_depth = _governor(guard)
        scanner = Scanner(source, chunk_size, guard=guard)
        helper = EventParser(scanner)
        table = self.table
        local = table.local
        by_tag = table.by_tag
        by_parent = table.by_parent
        elements_in = elements_out = attributes_in = attributes_out = 0
        texts_in = texts_out = 0
        tags_in: set[str] = set()
        tags_out: set[str] = set()
        open_kept: list[tuple[str, TagPlan]] = []
        plan: TagPlan | None = None
        seen_root = False
        matches: Iterator[re.Match[str]] = iter(())
        match: re.Match[str] | None = None

        yield helper._parse_prolog()

        while True:
            if tick is not None:
                tick()
            if open_kept:
                token = next(matches, None)
                if token is not None:
                    match = token
                    text, closing, tag, attrs_text, slash, leaf = token.groups()
                    misc = None
                else:
                    _commit(scanner, match)
                    match = None
                    text, closing, tag, attrs_text, slash, misc = _read_token(
                        scanner, helper, len(open_kept), plan.text_kept
                    )
                    leaf = None
                    matches = scanner.matches(_TOKEN_RE, _LEAN_TOKEN_RE)
                if text:
                    texts_in += 1
                    if plan.text_kept:
                        texts_out += 1
                        yield Characters(text)
            else:
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, helper, 0, False, seen_root=seen_root
                )
                leaf = None
            if closing is not None:
                if not open_kept:
                    raise scanner.error(f"closing tag </{closing}> with no open element")
                expected = open_kept.pop()[0]
                if expected != closing:
                    _commit(scanner, match)
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
                if open_kept:
                    plan = open_kept[-1][1]
                else:  # the root's end tag: the rest is read the hard way
                    _commit(scanner, match)
                    match = None
                yield EndElement(closing)
            elif tag is not None:
                if local:
                    child = by_tag.get(tag)
                else:
                    child = by_parent.get((plan.name if open_kept else None, tag))
                if child is None:
                    if attrs_text:
                        _commit_start_tag(scanner, match, leaf)
                        _parse_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                elements_in += 1
                tags_in.add(tag)
                if child.keep:
                    if attrs_text:
                        _commit_start_tag(scanner, match, leaf)
                        attributes, count_in = _parse_attributes(
                            scanner, tag, attrs_text, child.prunable
                        )
                        attributes_in += count_in
                        attributes_out += len(attributes)
                    else:
                        attributes = {}
                    elements_out += 1
                    tags_out.add(tag)
                    yield StartElement(tag, attributes)
                    if leaf is not None:  # the whole element at once
                        if len(open_kept) + 1 > max_depth:
                            guard.check_depth(len(open_kept) + 1)  # type: ignore[union-attr]
                        if leaf:
                            texts_in += 1
                            if child.text_kept:
                                texts_out += 1
                                yield Characters(leaf)
                        yield EndElement(tag)
                    elif slash:
                        yield EndElement(tag)
                    else:
                        open_kept.append((tag, child))
                        plan = child
                        if len(open_kept) > max_depth:
                            guard.check_depth(len(open_kept))  # type: ignore[union-attr]
                else:
                    if attrs_text:
                        if attrs_text.count("=") == 1 and "&" not in attrs_text:
                            attributes_in += 1  # one attribute, nothing to check
                        else:
                            _commit_start_tag(scanner, match, leaf)
                            attributes_in += _parse_attributes(
                                scanner, tag, attrs_text
                            )[1]
                    if leaf is not None:  # the whole element, skipped at once
                        if len(open_kept) + 1 > max_depth:
                            guard.check_depth(len(open_kept) + 1)  # type: ignore[union-attr]
                        if leaf:
                            texts_in += 1
                    elif not slash:
                        matches, match, skipped_elements, skipped_attributes, skipped_texts = (
                            self._skip_subtree(
                                scanner, matches, match, tag, tags_in, len(open_kept),
                                tick, max_depth,
                            )
                        )
                        if not open_kept:  # a skipped root: the rest is read the hard way
                            _commit(scanner, match)
                            match = None
                        elements_in += skipped_elements
                        attributes_in += skipped_attributes
                        texts_in += skipped_texts
            elif misc is not None:
                if type(misc) is Characters:  # a CDATA section
                    texts_in += 1
                    if plan.text_kept:
                        texts_out += 1
                        yield misc
                else:
                    yield misc
            elif open_kept:
                raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
            else:
                break
        if not seen_root:
            raise scanner.error("document has no root element")
        stats = self.stats
        if stats is not None:
            stats.elements_in += elements_in
            stats.elements_out += elements_out
            stats.attributes_in += attributes_in
            stats.attributes_out += attributes_out
            stats.texts_in += texts_in
            stats.texts_out += texts_out
            stats.distinct_tags_in |= tags_in
            stats.distinct_tags_out |= tags_out
        yield EndDocument()

    # -- attribute helpers -------------------------------------------------

    def _render_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str, prunable: frozenset[str]
    ) -> tuple[str, int, int]:
        """Serialize a kept element's attributes (filtered and
        re-escaped); returns ``(markup, attributes seen, attributes
        kept)``.  The write loop's twin of
        :func:`~repro.xmltree.parser._parse_attributes`, with the same
        checks in the same order, rendering as it goes: rendering from
        that function's dict made a keep-all XMark write ~3 % slower."""
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
            _check_unique(scanner, tag, names)
        return "".join(pieces), len(names), count_out

    # -- bulk skipping -----------------------------------------------------

    def _skip_subtree(
        self,
        scanner: Scanner,
        matches: "Iterator[re.Match[str]]",
        match: "re.Match[str] | None",
        first_tag: str,
        tags: set[str],
        depth: int,
        tick: Callable[[], None] | None,
        max_depth: int,
    ) -> tuple["Iterator[re.Match[str]]", "re.Match[str] | None", int, int, int]:
        """Bulk-skip the content of a discarded element up to and
        including its end tag, maintaining only a tag stack for
        well-formedness and the counters the event path would have
        gathered; adds the tags it saw to ``tags``.  The skip goes on with
        the caller's iterator ``matches`` and its last match ``match``
        (``None`` when the scanner position is committed), and returns
        ``(matches, match, elements, attributes, texts)``: the iterator it
        ended on and the end tag's match, so the caller reads on without a
        commit or a new iterator — except after a skipped root element,
        where the caller commits ``match`` before reading the rest of the
        document the hard way.  ``depth`` is the kept-element nesting
        above this subtree, so the depth limit sees the document's true
        depth even inside discarded regions; ``tick`` and ``max_depth``
        come from :func:`_governor`."""
        open_tags = [first_tag]
        depth += 1
        if depth > max_depth:
            self.guard.check_depth(depth)  # type: ignore[union-attr]
        elements = attributes = texts = 0
        while True:
            if tick is not None:
                tick()
            for match in matches:
                text, closing, tag, attrs_text, slash, leaf = match.groups()
                misc = None
                break
            else:  # a miss: commit the last match taken, read one token
                # the hard way, then match a new window
                _commit(scanner, match)
                match = None
                text, closing, tag, attrs_text, slash, misc = _read_token(
                    scanner, None, depth, False, skipping=True
                )
                leaf = None
                matches = scanner.matches(_TOKEN_RE, _LEAN_TOKEN_RE)
            if text:
                texts += 1
            if closing is not None:
                expected = open_tags.pop()
                if expected != closing:
                    _commit(scanner, match)
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
                if not open_tags:
                    return matches, match, elements, attributes, texts
                depth -= 1
            elif tag is not None:
                elements += 1
                tags.add(tag)
                if attrs_text:
                    if attrs_text.count("=") == 1 and "&" not in attrs_text:
                        attributes += 1  # one attribute, nothing to check
                    else:
                        _commit_start_tag(scanner, match, leaf)
                        attributes += _parse_attributes(scanner, tag, attrs_text)[1]
                if leaf is not None:  # the whole element at once
                    if depth + 1 > max_depth:
                        self.guard.check_depth(depth + 1)  # type: ignore[union-attr]
                    if leaf:
                        texts += 1
                elif not slash:
                    open_tags.append(tag)
                    depth += 1
                    if depth > max_depth:
                        self.guard.check_depth(depth)  # type: ignore[union-attr]
            elif misc is not None:
                if misc is _SKIPPED_CDATA:
                    texts += 1
            else:
                raise scanner.error(f"unclosed element <{open_tags[-1]}>")
