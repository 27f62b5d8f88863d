"""The unified public extraction API: one :func:`extract` for every source.

Mirrors :mod:`repro.api` (the ``prune`` facade) shape for shape::

    from repro import ExtractSpec, extract, load_grammar

    grammar = load_grammar("auction.dtd", root="site")
    spec = ExtractSpec(
        rows="/site/people/person",
        fields={"name": "name/text()", "city": "address/city/text()"},
        null="",
    )
    result = extract("auction.xml", grammar, spec)          # -> records+text
    extract("auction.xml", grammar, spec,
            out="people.csv", format="csv")                 # -> file

``source`` dispatch matches :func:`repro.prune`: markup string, input
path, open text stream, or an (unpruned) event iterable.  ``out=None``
collects both the encoded text and the record dicts; a path streams the
encoded records to a file (removed again on mid-stream failure); an
object with ``.write`` is streamed to.

The projector is inferred from the spec (row path ∪ absolutized field
paths) through the projector cache, keyed by the spec's content
fingerprint — repeated extractions of the same workload skip the static
analysis entirely.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ledger import Ledger

from repro.core.cache import ProjectorCache, resolve_spec_projector
from repro.dtd.grammar import Grammar
from repro.errors import ReproError
from repro.extract.records import FORMATS, record_writer
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.extract.streaming import _records_pass
from repro.limits import Limits, resolve_limits
from repro.projection.fastpath import FastPruner
from repro.projection.streaming import StreamingPruner
from repro.run import (
    EVENTS,
    MARKUP,
    STREAM,
    WireOptions,
    execute,
    open_source,
    resolve_options,
    source_kind,
    stray_refusal,
)
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE

__all__ = ["ExtractOptions", "ExtractResult", "extract"]


@dataclass(slots=True, frozen=True)
class ExtractOptions(WireOptions):
    """Behavioural knobs shared by every :func:`extract` form.

    * ``format`` — output encoding, ``"jsonl"`` (default) or ``"csv"``;
    * ``fast`` — use the fused scanner-level pipeline (record assembly
      rides the bulk scan; records are identical to the event pipeline's,
      ``False`` exists for benchmarking and debugging);
    * ``chunk_size`` — read granularity for streaming sources;
    * ``limits`` — resource bounds for the pass, as in
      :class:`repro.api.PruneOptions`.

    ``to_wire``/``from_wire`` give the JSON form the service protocol
    ships (see :class:`repro.run.WireOptions`).
    """

    _op = "extract"

    format: str = "jsonl"
    fast: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    limits: "Limits | str | None" = None

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ReproError(
                f"unknown extract format {self.format!r} "
                f"(expected one of {FORMATS})"
            )


DEFAULT_EXTRACT_OPTIONS = ExtractOptions()


@dataclass(slots=True)
class ExtractResult:
    """What one :func:`extract` call produced.

    ``stats`` always carries the :class:`~repro.extract.stats.ExtractStats`
    counters.  With ``out=None`` both ``records`` (the NULL-substituted
    dicts, column order = declared field order) and ``text`` (the encoded
    JSONL/CSV) are populated; with a path ``out`` only ``output_path``;
    with a stream ``out`` all three stay ``None`` — the encoded records
    went to the caller's sink.
    """

    stats: ExtractStats
    records: "list[dict[str, Any]] | None" = None
    text: str | None = None
    output_path: str | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        if self.records is None:
            raise TypeError(
                "this extract() result carries no records "
                "(output went to a file or stream)"
            )
        return iter(self.records)


class RecordAssembler:
    """The run path's record consumer (:mod:`repro.run`): the spec's rows
    as JSONL/CSV records, assembled by
    :func:`~repro.extract.streaming.iter_records` over
    ``FastPruner.events`` in the fused pass or over the event pipeline's
    :class:`~repro.projection.streaming.StreamingPruner`."""

    op = "extract"
    stats_type = ExtractStats
    records = True
    servable = True

    def __init__(
        self,
        grammar: Grammar,
        projector: frozenset[str],
        spec: ExtractSpec,
        options: ExtractOptions,
    ) -> None:
        self.grammar = grammar
        self.projector = frozenset(projector)
        self.spec = spec
        self.options = options
        self.limits = resolve_limits(options.limits)
        self.fused = options.fast
        self.span_attrs = {"format": options.format}

    def provably_empty(self) -> bool:
        """A row path the satisfiability pre-pass proves empty under the
        grammar yields zero rows from every grammar-valid document."""
        from repro.static.sat import classify_query

        return not classify_query(
            self.grammar, self.spec.rows, language="xpath"
        ).satisfiable

    def empty(self, stats: ExtractStats) -> str:
        """The encoding of zero records (nothing for JSONL, the bare
        header row for CSV), byte-identical to what the full scan emits
        when the row path matches nothing."""
        sink = io.StringIO()
        record_writer(self.options.format, self.spec, sink).start()
        return sink.getvalue()

    def fast_pass(self, source, sink, stats, guard, collect) -> None:
        pruner = FastPruner(self.grammar, self.projector, True, guard=guard)
        _records_pass(
            pruner.events(source, self.options.chunk_size), self.spec,
            record_writer(self.options.format, self.spec, sink), stats, collect,
        )

    def event_pass(self, events, sink, stats, guard, collect) -> None:
        pruned = StreamingPruner(self.grammar, self.projector, guard=guard).process(
            events
        )
        _records_pass(
            pruned, self.spec,
            record_writer(self.options.format, self.spec, sink), stats, collect,
        )

    def workload_fingerprint(self) -> str:
        from repro.ledger.canonical import hash_canonical

        return hash_canonical(
            {"format": self.options.format, "spec": self.spec.fingerprint()}
        )

    def provenance(self, extra: dict[str, Any]) -> dict[str, Any]:
        # Spec and format are defaults that caller context may override.
        return {"spec": self.spec.to_wire(), "format": self.options.format, **extra}

    def result(self, stats, text, output_path, records) -> ExtractResult:
        return ExtractResult(
            stats=stats, records=records, text=text, output_path=output_path
        )


def extract(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    spec: ExtractSpec,
    *,
    out: "str | os.PathLike[str] | IO[str] | None" = None,
    options: ExtractOptions | None = None,
    format: str | None = None,
    fast: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    cache: ProjectorCache | None = None,
    ledger: "Ledger | None" = None,
    provenance: "dict[str, Any] | None" = None,
) -> ExtractResult:
    """Extract ``spec``'s records from ``source`` in one streaming pass.

    See the module docstring for the source/out dispatch table.  Returns
    an :class:`ExtractResult`; memory stays O(row depth + field count)
    regardless of source size — no document tree is ever built.

    ``ledger=`` attests the run into a :class:`repro.ledger.Ledger`
    (keyed by grammar/spec/limits fingerprints plus the input content
    hash) and serves previously-recorded results for identical runs from
    stored bytes — by Thm 4.5 byte-identity the served records and text
    equal what a fresh extraction would produce.  ``provenance=`` merges
    extra context (e.g. the grammar's DTD path) into the recorded entry
    so ``repro-xml verify-ledger`` can replay it later.  Event-stream
    sources and open-stream inputs bypass the ledger (their bytes cannot
    be hashed without consuming them).
    """
    opts = resolve_options(
        options, DEFAULT_EXTRACT_OPTIONS,
        format=format, fast=fast, chunk_size=chunk_size, limits=limits,
    )
    kind = source_kind(source)
    if getattr(grammar, "on_stray", None) is not None:
        # Inferred grammars: records from a stray document would be
        # silently wrong (Theorem 4.5 only covers accepted documents),
        # and a verbatim copy has no tabular analogue — so extraction
        # pre-validates and *refuses* strays under either policy.
        source, kind = _prevalidate_inferred(source, kind, grammar)
    projector = resolve_spec_projector(grammar, spec, cache=cache)
    if kind == EVENTS and not hasattr(source, "__iter__"):
        raise TypeError(f"cannot extract from source of type {type(source).__name__}")
    assembler = RecordAssembler(grammar, projector, spec, opts)
    return execute(assembler, source, kind, out, ledger, provenance)


# ``repro.extract`` is this function (see ``repro._Package``), so
# ``import repro.extract.api as api`` looks ``api`` up on it and falls
# back to ``sys.modules[f"{extract.__name__}.api"]``.
extract.__name__ = "repro.extract"


def _prevalidate_inferred(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    kind: str,
    grammar: Grammar,
) -> "tuple[str | os.PathLike[str], str]":
    """The extraction half of the inferred-grammar escape hatch: a
    dedicated validation pass over the source before any record is
    assembled.  A stray document raises
    :class:`~repro.errors.StrayDocumentError` regardless of the
    grammar's ``on_stray`` policy (``"copy"`` only makes sense for
    pruning); open streams are buffered so the extraction can replay
    them (the buffered text stays markup, never a path), event streams
    are refused (they cannot be replayed)."""
    from repro.dtd.validator import EventValidator
    from repro.xmltree.parser import parse_events

    if kind == STREAM:
        source, kind = source.read(), MARKUP  # type: ignore[union-attr]
    elif kind == EVENTS:
        raise ReproError(
            "extract() against an inferred grammar needs a replayable "
            "source (markup, a path, or a stream) — not an event stream"
        )
    validator = EventValidator(grammar)
    with stray_refusal(), open_source(source, kind) as opened:
        for event in parse_events(opened):
            validator.feed(event)
        validator.finish()
    return source, kind  # type: ignore[return-value]
