"""One run path for prune and extract.

The paper prunes in one bufferless pass made while parsing (Section 1.2,
Definition 2.7); extraction rides that same pass with a different
consumer.  This module is everything between a resolved (grammar,
projector, options) and a finished result, written once for both:

* the source is classified once (:func:`source_kind`): markup, path,
  open stream or event iterable;
* ``bytes_in`` is measured and the source opened *before* the sink, so
  a missing input never touches a file already at ``out``, and an
  ``out`` path that is the source file is refused before either opens;
* the ``out`` dispatch: collect into a string, write a path under the
  remove-partial-output contract (:func:`_open_output`), or stream to
  the caller's sink (hashed on the way when the ledger records it);
* the attestation ledger: fingerprint, dedup-serve and record
  (:func:`attest`);
* the static short-circuit for workloads proven empty;
* the one pass: fused, or the event pipeline (``fast=False``,
  validation, event sources).  Both read tags with one reader
  (:mod:`repro.xmltree.parser`), so they refuse the same input with the
  same error, and a pass is never retried.

Two consumers plug in: :class:`repro.api.MarkupWriter` (the pruned
markup, via ``FastPruner.write`` or ``write_events``) and
:class:`repro.extract.api.RecordAssembler` (records, via
``iter_records`` over ``FastPruner.events`` or the
:class:`~repro.projection.streaming.StreamingPruner`).  A consumer
provides ``op`` (the span and ledger op name), ``stats_type``,
``records`` (whether it collects record dicts), ``grammar``,
``projector``, ``options``, resolved ``limits``, ``fused``,
``servable``, ``span_attrs``, and the methods ``provably_empty()``,
``empty(stats)``, ``fast_pass(...)``, ``event_pass(...)``,
``workload_fingerprint()``, ``provenance(extra)`` and ``result(...)``.

:func:`repro.prune`, :func:`repro.extract`, batch mode and the
projection service are adapters over :func:`execute`.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import fields, replace
from typing import IO, TYPE_CHECKING, Any, ClassVar, Iterator

from repro import obs
from repro.errors import (
    EncodingError,
    ReproError,
    StrayDocumentError,
    ValidationError,
)
from repro.limits import Limits
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE
from repro.xmltree.parser import parse_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ledger uses obs)
    from repro.ledger import Ledger
    from repro.limits import LimitGuard

#: Source kinds, as :func:`source_kind` classifies them.
MARKUP, PATH, STREAM, EVENTS = "markup", "path", "stream", "events"


def is_markup(text: str) -> bool:
    """The markup-or-path rule: a string whose first non-blank character
    is ``<`` is XML markup; any other string names a file."""
    return text.lstrip()[:1] == "<"


def source_kind(source: Any) -> str:
    """Classify a source once: a markup string, a path (any other string
    or an :class:`os.PathLike`), an open text stream (has ``.read``), or
    else an event iterable."""
    if isinstance(source, str):
        return MARKUP if is_markup(source) else PATH
    if isinstance(source, os.PathLike):
        return PATH
    return STREAM if hasattr(source, "read") else EVENTS


# -- options -------------------------------------------------------------------


def resolve_options(options: Any, default: Any, **overrides: Any) -> Any:
    """``options`` (or ``default`` when ``None``) with every keyword
    override that was given (is not ``None``) applied — how the facades
    and batch mode fold their option keywords into the options object."""
    resolved = options if options is not None else default
    given = {name: value for name, value in overrides.items() if value is not None}
    return replace(resolved, **given) if given else resolved


class WireOptions:
    """The JSON wire form shared by :class:`~repro.api.PruneOptions` and
    :class:`~repro.extract.api.ExtractOptions` (the service protocol
    ships options this way)."""

    __slots__ = ()

    #: The op named when unknown wire keys are refused.
    _op: ClassVar[str]

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form: only the fields that differ from the defaults
        (``limits`` serializes as a profile name or a bounds dict)."""
        wire: dict[str, Any] = {}
        for field in fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            if field.name != "limits" and value != field.default:
                wire[field.name] = value
        limits = self.limits  # type: ignore[attr-defined]
        if limits is not None:
            wire["limits"] = limits if isinstance(limits, str) else limits.as_dict()
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> Any:
        """Rebuild from :meth:`to_wire` output (unknown keys rejected so a
        client/server version skew fails loudly, not silently)."""
        given = dict(wire)
        limits = given.pop("limits", None)
        if isinstance(limits, dict):
            limits = Limits.from_dict(limits)
        unknown = set(given) - {field.name for field in fields(cls)}  # type: ignore[arg-type]
        if unknown:
            raise ValueError(f"unknown {cls._op} option(s): {sorted(unknown)}")
        return cls(limits=limits, **given)


@contextlib.contextmanager
def stray_refusal() -> Iterator[None]:
    """Map a validation failure against an inferred grammar to the
    structured stray refusal (counted as ``schema.strays``): Theorem 4.5
    only covers accepted documents, so a stray is never pruned or
    extracted as if it validated."""
    try:
        yield
    except StrayDocumentError:
        raise
    except ValidationError as exc:
        obs.count("schema.strays")
        raise StrayDocumentError(str(exc), exc.node_id) from exc


# -- source and sink -----------------------------------------------------------


def measure(source: Any, kind: str, stats: Any) -> None:
    """``bytes_in`` by size for a path, by UTF-8 length for markup; an
    open stream cannot be measured and stays 0."""
    if kind == PATH:
        stats.bytes_in = os.path.getsize(os.fspath(source))
    elif kind == MARKUP:
        # "replace": hostile markup may contain lone surrogates, which
        # must surface as the pipeline's structured error (if at all),
        # not as a crash in this bookkeeping line.
        stats.bytes_in = len(source.encode("utf-8", "replace"))


@contextlib.contextmanager
def open_source(source: Any, kind: str) -> Iterator[Any]:
    """The source ready to read: a path opened as UTF-8 text, anything
    else as it is."""
    if kind != PATH:
        yield source
        return
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        yield handle


def _file_identity(path: Any) -> "tuple[int, int] | None":
    """What ``os.path.samefile`` compares — (device, inode), so a link
    names the file it points to — or ``None`` when ``path`` cannot be
    stat'ed (it does not exist yet)."""
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def _refuse_overwriting_source(source: Any, out: Any) -> None:
    """Refuse an output path that is the source file (also through a
    link): opening it for writing would truncate the input unread."""
    identity = _file_identity(source)
    if identity is not None and identity == _file_identity(out):
        raise ReproError(
            f"output {os.fspath(out)!r} is the source file; "
            "refusing to overwrite the input"
        )


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[IO[str]]:
    """Open ``path`` for writing under the partial-output contract.

    If the body fails after the open succeeded, the partially written
    file is removed before the error propagates — a half-pruned document
    on disk is worse than none.  If the *open itself* fails (unwritable
    path, missing directory), nothing is removed: a pre-existing file at
    the path was never touched and must survive.
    """
    sink = open(path, "w", encoding="utf-8")
    try:
        with sink:
            yield sink
    except BaseException:
        try:
            os.remove(path)
        except OSError:
            pass
        raise


class _Output:
    """The run's sink.  Counts the characters written (``bytes_out``),
    enforces the output-size limit and hashes the output for the ledger
    when asked.  It wraps whole buffered flushes — tens of kilobytes
    each — so its per-call cost never shows up."""

    __slots__ = ("target", "guard", "hasher", "written")

    def __init__(self, target: Any, guard: "LimitGuard | None", hashed: bool) -> None:
        self.target = target
        self.guard = guard
        self.hasher = None
        if hashed:
            from repro.ledger.canonical import HashingSink

            self.hasher = HashingSink()
        self.written = 0

    def write(self, text: str) -> int:
        if self.guard is not None:
            self.guard.add_output(len(text))
        if self.hasher is not None:
            self.hasher.write(text)
        self.written += len(text)
        return self.target.write(text)


@contextlib.contextmanager
def _output(
    out: Any, guard: "LimitGuard | None" = None, hashed: bool = False
) -> Iterator[_Output]:
    """The ``out`` dispatch: ``None`` collects into a string, an object
    with ``.write`` is the caller's stream, anything else is a path
    written under :func:`_open_output`."""
    if out is None:
        yield _Output(io.StringIO(), guard, hashed)
    elif hasattr(out, "write"):
        yield _Output(out, guard, hashed)
    else:
        with _open_output(os.fspath(out)) as handle:
            yield _Output(handle, guard, hashed)


def _finish(consumer: Any, stats: Any, out: Any, sink: _Output, records: Any) -> Any:
    """The consumer's result for a finished ``out`` dispatch: the
    collected text, or the output path, or neither (a caller's stream)."""
    text = sink.target.getvalue() if out is None else None
    path = None if out is None or hasattr(out, "write") else os.fspath(out)
    return consumer.result(stats, text, path, records)


def deliver(
    consumer: Any, stats: Any, content: "str | IO[str]", out: Any, records: Any = None
) -> Any:
    """Emit finished output — a string, or a text stream copied in
    chunks — through the ``out`` dispatch: the static short-circuit, a
    ledger hit, a verbatim stray copy."""
    with _output(out) as sink:
        if isinstance(content, str):
            sink.write(content)
        else:
            for chunk in iter(lambda: content.read(DEFAULT_CHUNK_SIZE), ""):
                sink.write(chunk)
    return _finish(consumer, stats, out, sink, records)


# -- the run -------------------------------------------------------------------


def execute(
    consumer: Any,
    source: Any,
    kind: str,
    out: Any,
    ledger: "Ledger | None" = None,
    provenance: dict[str, Any] | None = None,
) -> Any:
    """Run ``consumer`` over ``source`` (classified as ``kind``) into
    ``out`` and return its result.

    A markup, path or stream source first meets the static
    short-circuit, then the ledger (a recorded run is served instead of
    scanned), then the scan itself.  An event source (the record
    consumer only) is scanned straight away.
    """
    if kind == PATH and out is not None and not hasattr(out, "write"):
        _refuse_overwriting_source(source, out)
    stats = consumer.stats_type()
    entry = None
    if kind != EVENTS:
        if consumer.provably_empty():
            # Nothing in any grammar-valid document can match, so the
            # answer is known without opening the document.
            measure(source, kind, stats)
            obs.count("static.short_circuits")
            text = consumer.empty(stats)
            stats.bytes_out = len(text.encode("utf-8"))
            return deliver(
                consumer, stats, text, out, records=[] if out is None else None
            )
        if ledger is not None:
            entry = attest(ledger, consumer, source, kind, provenance)
            if entry is not None and consumer.servable:
                served = entry.serve(
                    consumer, out, need_records=consumer.records and out is None
                )
                if served is not None:
                    return served
    guard = consumer.limits.guard()
    collect: "list[dict[str, Any]] | None" = (
        [] if consumer.records and out is None else None
    )
    hashed = entry is not None and hasattr(out, "write")
    measure(source, kind, stats)
    with open_source(source, kind) as opened, _output(out, guard, hashed) as sink:
        _scan(consumer, opened, kind, sink, stats, collect, guard)
    result = _finish(consumer, stats, out, sink, collect)
    if entry is not None:
        entry.record(
            consumer.op, stats,
            text=result.text, output_path=result.output_path,
            output_hash=sink.hasher.hexdigest() if sink.hasher is not None else None,
            records=collect,
        )
    return result


def _scan(
    consumer: Any,
    source: Any,
    kind: str,
    sink: _Output,
    stats: Any,
    collect: "list[dict[str, Any]] | None",
    guard: "LimitGuard | None",
) -> None:
    """The one pass, under a span named for the consumer's op carrying
    its stats.  Undecodable input and unencodable output surface as
    :class:`~repro.errors.EncodingError` (an event source has been
    decoded already: its errors pass through untouched)."""
    parsed = kind == EVENTS
    fused = consumer.fused and not parsed
    with obs.span(
        consumer.op, mode="fast" if fused else "events", **consumer.span_attrs
    ) as span:
        try:
            if fused:
                consumer.fast_pass(source, sink, stats, guard, collect)
            elif parsed:
                # Event input never met a guarded parser: the pruner
                # enforces the depth and token bounds itself.
                consumer.event_pass(source, sink, stats, guard, collect)
            else:
                events = parse_events(source, consumer.options.chunk_size, guard=guard)
                consumer.event_pass(events, sink, stats, None, collect)
            stats.bytes_out = sink.written
        except UnicodeError as exc:
            if parsed:
                raise
            raise EncodingError(str(exc)) from exc
        span.merge_counters(stats.as_counters())


# -- the attestation ledger ------------------------------------------------------


def attest(
    ledger: "Ledger",
    consumer: Any,
    source: Any,
    kind: str,
    provenance: dict[str, Any] | None = None,
) -> "Attestation | None":
    """Fingerprint one run for the ledger: the key (grammar, workload,
    limits, input content) plus provenance.  ``None`` for a source that
    cannot be hashed without consuming it (an open stream or events) —
    such a run bypasses the ledger rather than record an unverifiable
    entry."""
    from repro.core.cache import grammar_fingerprint
    from repro.ledger.canonical import hash_file, hash_text, limits_fingerprint

    if kind == PATH:
        input_hash = hash_file(os.fspath(source))
    elif kind == MARKUP:
        input_hash = hash_text(source)
    else:
        return None
    key = (
        grammar_fingerprint(consumer.grammar),
        consumer.workload_fingerprint(),
        limits_fingerprint(consumer.limits),
        input_hash,
    )
    prov = {
        **consumer.provenance(provenance or {}),
        "source": os.path.abspath(os.fspath(source)) if kind == PATH else None,
    }
    return Attestation(ledger, key, prov)


class Attestation:
    """One run's ledger key and provenance: serve the recorded result,
    or record this run's."""

    __slots__ = ("ledger", "key", "provenance")

    def __init__(
        self, ledger: "Ledger", key: tuple[str, str, str, str], provenance: dict[str, Any]
    ) -> None:
        self.ledger = ledger
        self.key = key
        self.provenance = provenance

    def serve(self, consumer: Any, out: Any, need_records: bool = False) -> Any:
        """A recorded, hash-verified result instead of a scan (``None``
        on a miss).  The stats come back equal to the recorded run's, and
        the bytes are the recorded bytes — by Thm 4.5 byte-identity,
        exactly what a fresh run over the same input would emit."""
        hit = self.ledger.fetch(self.key, need_records=need_records)
        if hit is None:
            return None
        entry, payload = hit
        from repro.ledger.ledger import decode_stats

        stats = decode_stats(entry.stats)
        if not isinstance(stats, consumer.stats_type):  # pragma: no cover - defensive
            return None
        records = list(payload["records"]) if need_records else None
        return deliver(consumer, stats, payload["text"], out, records)

    def record(
        self,
        op: str,
        stats: Any,
        *,
        text: str | None = None,
        output_path: str | None = None,
        output_hash: str | None = None,
        records: "list[dict[str, Any]] | None" = None,
    ) -> None:
        """Append the attestation for a completed run, retaining the
        output bytes for dedup when they are at hand (collected text) or
        recoverable (the written file)."""
        from repro.ledger.canonical import hash_file, hash_records, hash_text
        from repro.ledger.ledger import encode_stats

        if output_hash is None:
            if text is not None:
                output_hash = hash_text(text)
            elif output_path is not None:
                output_hash = hash_file(output_path)
            else:  # pragma: no cover - callers always pass one of the three
                return
        if text is None and output_path is not None and self.ledger.store is not None:
            try:
                with open(output_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:  # pragma: no cover - racing deletion
                text = None
        result: dict[str, Any] | None = None
        if text is not None:
            result = {"kind": op, "text": text}
            if records is not None:
                result["records"] = records
        grammar_fp, workload_fp, limits_fp, input_hash = self.key
        self.ledger.record(
            op=op,
            grammar_fp=grammar_fp,
            workload_fp=workload_fp,
            limits_fp=limits_fp,
            input_hash=input_hash,
            output_hash=output_hash,
            records_hash=hash_records(records) if records is not None else None,
            stats=encode_stats(stats),
            provenance=self.provenance,
            result=result,
        )
