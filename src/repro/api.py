"""The unified public pruning API: one :func:`prune` for every source.

Every source kind — markup text, a path, an open stream, an event
iterable — goes through one keyword-consistent facade::

    from repro import prune

    result = prune(xml_text, grammar, projector)          # text  -> text
    result = prune("in.xml", grammar, projector,
                   out="pruned.xml", validate=True)       # file  -> file
    result = prune(handle, grammar, projector, out=sink)  # stream-> stream
    for event in prune(events, grammar, projector):       # events-> events
        ...

``source`` dispatch: a string that (after leading whitespace) starts with
``<`` is XML markup, any other string or :class:`os.PathLike` is an input
path, an object with ``.read`` is a text stream, and any other iterable is
an event stream.  ``out`` mirrors this: ``None`` collects text (or, for an
event source, returns the pruned event iterator), a path writes a file
(removed again if pruning fails mid-stream), and an object with ``.write``
is streamed to.

Options shared by every form live in :class:`PruneOptions`; the common
ones (``fast``, ``validate``) are also accepted directly as keywords and
override the options object when given.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ledger uses obs)
    from repro.ledger import Ledger

from repro import obs
from repro.dtd.grammar import Grammar
from repro.errors import ReproError, ValidationError
from repro.limits import Limits, resolve_limits
from repro.projection.fastpath import FastPruner
from repro.projection.stats import PruneStats
from repro.projection.streaming import StreamingPruner, _prune_events
from repro.run import (
    EVENTS,
    MARKUP,
    STREAM,
    WireOptions,
    deliver,
    execute,
    measure,
    open_source,
    resolve_options,
    source_kind,
    stray_refusal,
)
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE
from repro.xmltree.serializer import write_events

__all__ = ["PruneOptions", "PruneResult", "prune"]


@dataclass(slots=True, frozen=True)
class PruneOptions(WireOptions):
    """Behavioural knobs shared by every :func:`prune` form.

    * ``fast`` — use the fused scanner-level pipeline (bulk tag scanning,
      bulk skipping of pruned regions).  Output is byte-identical to the
      event pipeline; ``False`` exists for benchmarking and debugging.
    * ``validate`` — run DTD validation in the same pass (forces the event
      pipeline: the validator must see every event).
    * ``prune_attributes`` — filter attributes not kept by the projector.
    * ``chunk_size`` — read granularity for streaming sources.
    * ``limits`` — resource bounds for the pass: a
      :class:`~repro.limits.Limits`, a profile name (``"strict"``,
      ``"default"``, ``"off"``), or ``None`` for the default profile.
      Violations raise :class:`~repro.errors.LimitExceeded` /
      :class:`~repro.errors.DeadlineExceeded`, from either pipeline
      alike.

    ``to_wire``/``from_wire`` give the JSON form the service protocol
    ships (see :class:`repro.run.WireOptions`).
    """

    _op = "prune"

    fast: bool = True
    validate: bool = False
    prune_attributes: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    limits: "Limits | str | None" = None


DEFAULT_OPTIONS = PruneOptions()


@dataclass(slots=True)
class PruneResult:
    """What one :func:`prune` call produced.

    Exactly one of ``text`` / ``events`` / ``output_path`` is populated
    (``output_path`` also stays ``None`` when ``out`` was an open stream —
    the markup went to the caller's sink).  ``stats`` always carries the
    :class:`~repro.projection.stats.PruneStats` counters; for an event
    source they finish filling only once the iterator is exhausted.
    """

    stats: PruneStats
    text: str | None = None
    events: Iterator[Event] | None = None
    output_path: str | None = None
    #: True when the inferred-grammar escape hatch fired with
    #: ``on_stray="copy"``: the output is the source verbatim, not a
    #: prune (the document strayed from the inferred grammar).
    stray: bool = False

    def __iter__(self) -> Iterator[Event]:
        if self.events is None:
            raise TypeError("this prune() result is not an event stream")
        return self.events


class MarkupWriter:
    """The run path's markup consumer (:mod:`repro.run`): the pruned
    document as markup, written by ``FastPruner.write`` in the fused pass
    or by ``write_events`` over the event pipeline."""

    op = "prune"
    stats_type = PruneStats
    records = False

    def __init__(
        self,
        grammar: Grammar,
        projector: frozenset[str] | set[str],
        options: PruneOptions,
        analysis: Any = None,
    ) -> None:
        self.grammar = grammar
        self.projector = frozenset(projector)
        self.options = options
        self.limits = resolve_limits(options.limits)
        self.analysis = analysis
        # Validation forces the event pipeline (the validator must see
        # every event) and is never dedup-served (it must see the
        # document).
        self.fused = options.fast and not options.validate
        self.servable = not options.validate
        self.span_attrs = {"validate": options.validate}

    def provably_empty(self) -> bool:
        """The static short-circuit applies: the pre-pass proved the
        workload empty, and no contract needs the real pass."""
        return (
            self.analysis is not None
            and self.analysis.provably_empty
            and not self.options.validate
            and self.options.prune_attributes
        )

    def empty(self, stats: PruneStats) -> str:
        """The pruned markup of every grammar-valid source for a
        provably-empty workload: the bare root element.  The scan
        counters stay zero — nothing was scanned."""
        tag = self.grammar.tag_of(self.grammar.root) or self.grammar.root
        stats.elements_out = 1
        stats.distinct_tags_out.add(tag)
        return f"<{tag}/>"

    def fast_pass(self, source, sink, stats, guard, collect) -> None:
        FastPruner(
            self.grammar, self.projector, self.options.prune_attributes,
            stats=stats, guard=guard,
        ).write(source, sink, chunk_size=self.options.chunk_size)

    def event_pass(self, events, sink, stats, guard, collect) -> None:
        pruned = StreamingPruner(
            self.grammar, self.projector,
            validate=self.options.validate,
            prune_attributes=self.options.prune_attributes,
            stats=stats, guard=guard,
        ).process(events)
        write_events(pruned, sink, declaration=False)

    def workload_fingerprint(self) -> str:
        from repro.core.cache import projector_fingerprint

        return projector_fingerprint(self.projector, self.options.prune_attributes)

    def provenance(self, extra: dict[str, Any]) -> dict[str, Any]:
        # The run's own projector always wins over caller context.
        return {
            **extra,
            "projector": sorted(self.projector),
            "prune_attributes": self.options.prune_attributes,
        }

    def result(self, stats, text, output_path, records) -> PruneResult:
        return PruneResult(stats=stats, text=text, output_path=output_path)


def prune(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    *,
    out: "str | os.PathLike[str] | IO[str] | None" = None,
    options: PruneOptions | None = None,
    fast: bool | None = None,
    validate: bool | None = None,
    prune_attributes: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    ledger: "Ledger | None" = None,
    provenance: dict[str, Any] | None = None,
) -> PruneResult:
    """Prune ``source`` down to the nodes the ``projector`` keeps.

    See the module docstring for the source/out dispatch table.  Returns a
    :class:`PruneResult`; pruning streams throughout, so memory stays
    O(document depth) regardless of source size.

    ``ledger`` opts this run into the attestation ledger
    (:mod:`repro.ledger`): the run is keyed by content fingerprints
    (grammar, projector + attribute flag, limits, input bytes) and its
    output hash recorded (``ledger.records``).  A key already recorded
    with retained output bytes is a *dedup hit* (``ledger.hits``): the
    stored bytes — re-verified against the recorded hash — are served
    without scanning the document, and Thm 4.5 byte-identity means they
    equal what the scan would have produced.  ``provenance`` adds
    caller-known replay context to the entry (e.g. ``{"grammar":
    {"dtd_path": ..., "root": ...}}``).  Event sources and non-rewindable
    streams cannot be content-hashed and bypass the ledger; a
    ``validate=True`` run records but is never dedup-served (validation
    must see the document).

    ``projector`` also accepts a full :class:`~repro.core.pipeline.
    AnalysisResult` (what :func:`repro.analyze` returns).  That unlocks
    the static short-circuit: a workload the satisfiability pre-pass
    proved empty (:attr:`~repro.core.pipeline.AnalysisResult.
    provably_empty`) is answered with the bare root element *without
    opening the document* — for grammar-valid sources this is exactly
    what the full pass would have produced.  (Prolog-level comments, the
    one pre-root construct the streaming pruner echoes, are dropped; and
    ``validate=True``, ``prune_attributes=False`` or an event source
    disable the shortcut, because those contracts need the real pass.)

    Pruning against an :class:`~repro.schema.infer.InferredGrammar`
    always validates (full validation against a dataguide grammar *is*
    the stray check) and applies the grammar's ``on_stray`` escape-hatch
    policy when the document lies outside the inferred language:
    ``"copy"`` emits the source verbatim (``result.stray`` is set),
    ``"error"`` raises :class:`~repro.errors.StrayDocumentError`.
    Theorem 4.5 soundness only covers accepted documents, so a stray is
    never pruned.
    """
    analysis = None
    if hasattr(projector, "projector") and hasattr(projector, "provably_empty"):
        analysis = projector
        projector = analysis.projector

    opts = resolve_options(
        options, DEFAULT_OPTIONS,
        fast=fast, validate=validate, prune_attributes=prune_attributes,
        chunk_size=chunk_size, limits=limits,
    )
    policy = getattr(grammar, "on_stray", None)
    if policy is not None:
        # Against an inferred grammar validation *is* the stray check
        # (see _prune_inferred), so it is always on.
        opts = replace(opts, validate=True)
    writer = MarkupWriter(grammar, projector, opts, analysis)
    kind = source_kind(source)

    if kind == EVENTS:
        # Event-stream source: transform iterator to iterator.
        if policy == "copy":
            raise ReproError(
                'on_stray="copy" cannot replay an event stream; '
                "prune the markup/path/stream form instead"
            )
        if not hasattr(source, "__iter__"):
            raise TypeError(f"cannot prune source of type {type(source).__name__}")
        if out is not None:
            raise ReproError(
                "prune() of an event stream returns events; "
                "serialize them explicitly instead of passing out="
            )
        # (``fast`` is moot here: event input already paid for parsing.)
        stats = PruneStats()
        events = _prune_events(
            source, grammar, writer.projector,
            validate=opts.validate, stats=stats,
            prune_attributes=opts.prune_attributes,
            guard=writer.limits.guard(),
        )
        if policy is not None:
            events = _stray_guard(events)
        return PruneResult(stats=stats, events=events)

    if policy is None:
        return execute(writer, source, kind, out, ledger, provenance)
    return _prune_inferred(writer, policy, source, kind, out, ledger, provenance)


# -- the inferred-grammar escape hatch ---------------------------------------


def _prune_inferred(
    writer: MarkupWriter,
    policy: str,
    source: "str | os.PathLike[str] | IO[str]",
    kind: str,
    out: "str | os.PathLike[str] | IO[str] | None",
    ledger: "Ledger | None",
    provenance: dict[str, Any] | None,
) -> PruneResult:
    """Prune against an inferred grammar: validate-and-prune in one
    pass, and apply the grammar's ``on_stray`` policy on a violation.

    Validation is forced on because for a dataguide grammar it *is* the
    stray check: the content models are starred unions of everything
    observed in the sample, so the first event outside them (an unseen
    child, text where none was seen, an unseen attribute) is exactly the
    first point where the document strays.  Forcing validation also
    forces the event pipeline — a stray inside a bulk-skipped pruned
    region would be invisible to the fused fast path.
    """
    if policy != "copy":
        with stray_refusal():
            return execute(writer, source, kind, out, ledger, provenance)
    if kind == STREAM:
        # Buffer so the copy fallback can replay the source; the buffered
        # text is still the stream's markup, never a path.
        source, kind = source.read(), MARKUP  # type: ignore[union-attr]
    out_is_stream = hasattr(out, "write")
    # A caller-owned sink cannot be un-written, so buffer the prune and
    # only forward it once the document fully validated.
    sink = io.StringIO() if out_is_stream else out
    try:
        result = execute(writer, source, kind, sink, ledger, provenance)
    except ValidationError:
        obs.count("schema.strays")
        return _copy_verbatim(writer, source, kind, out)
    if out_is_stream:
        out.write(sink.getvalue())  # type: ignore[union-attr]
    return result


def _stray_guard(events: Iterator[Event]) -> Iterator[Event]:
    """Re-raise lazy validation failures of an event-source prune as the
    structured stray refusal."""
    with stray_refusal():
        yield from events


def _copy_verbatim(
    writer: MarkupWriter,
    source: "str | os.PathLike[str]",
    kind: str,
    out: "str | os.PathLike[str] | IO[str] | None",
) -> PruneResult:
    """The ``on_stray="copy"`` fallback: the source, byte for byte.  A
    verbatim copy preserves every query answer, so it is always sound —
    just not pruned.  ``result.stray`` marks it."""
    stats = PruneStats()
    measure(source, kind, stats)
    stats.bytes_out = stats.bytes_in
    with open_source(source, kind) as opened:
        result = deliver(writer, stats, opened, out)
    result.stray = True
    return result
