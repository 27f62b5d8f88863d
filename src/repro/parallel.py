"""Parallel batch pruning: one projector, many documents, many cores.

The journal version of the paper stresses that projection-based pruning is
embarrassingly parallel across documents: the static analysis is computed
once per (DTD, query-set) pair and every document is then pruned
independently.  This module is that deployment.  :func:`prune_many` shards
a corpus across a process pool:

* the projector is resolved **once in the parent** through the
  :class:`~repro.core.cache.ProjectorCache` (queries are accepted directly,
  or a pre-inferred projector is passed through);
* the pool is the one :class:`~repro.pool.ResidentPool` the projection
  service also runs on, and it outlives the call: the first ``jobs > 1``
  call spawns it and later calls reuse its warm workers and pins
  (:func:`repro.pool.borrow` decides when it no longer fits and is
  replaced); the parent pins the compiled
  :class:`~repro.projection.fastpath.FastPruner` before the workers
  spawn, so they inherit it by fork, and each worker re-derives the
  grammar fingerprint so a grammar that does not survive the process
  boundary intact is re-run in the parent instead of pruned wrong;
* an output path that is one of the batch's sources is refused in the
  parent before anything is written, and output names are distinct by
  construction (:func:`_output_paths`);
* every document runs through the fused fast path (or whatever
  :class:`~repro.api.PruneOptions` selects), with results returned in
  **input order** regardless of completion order;
* a malformed document — or an unwritable output — yields a structured
  :class:`BatchError` for that item; the other items still complete, and
  a crashed worker process poisons only the items that were still pending
  (each reported as a ``worker-crash`` error) instead of hanging the pool;
* workers trace into a process-local :class:`~repro.obs.MemorySink` and
  ship their span records and counters back with each result; the parent
  absorbs them into its tracer (:func:`repro.pool.absorb`), so a single
  ``--trace-out`` file still tells the whole story, with a ``worker``
  attribute marking which process ran each document.

What batch mode adds to the shared pool is its round logic: a per-item
``timeout`` that kills stuck workers, crash blame, and ``retry_crashes``.

``jobs=1`` bypasses the pool entirely and runs the items serially in the
parent — byte-identical, by construction, to calling :func:`repro.prune`
per document (the differential tests assert it).

:func:`extract_many` is the same deployment for tabular extraction: one
:class:`~repro.extract.spec.ExtractSpec`, many documents, the same pool,
timeout, and crash-recovery machinery — workers run the fused
extract-while-scanning pass and ship back per-item
:class:`~repro.extract.api.ExtractResult` values (or record files under
``out_dir``, named after the source with a ``.jsonl``/``.csv`` suffix).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro import obs, pool
from repro.api import DEFAULT_OPTIONS, PruneOptions, PruneResult
from repro.core.cache import ProjectorCache, resolve_projector, resolve_spec_projector
from repro.dtd.grammar import Grammar
from repro.errors import ReproError
from repro.extract.api import DEFAULT_EXTRACT_OPTIONS, ExtractOptions, ExtractResult
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.limits import Limits, resolve_limits
from repro.pool import (
    FINGERPRINT_MISMATCH,
    WORKER_CRASH,
    _resolve_jobs,
    absorb,
    rerun_in_parent,
)
from repro.projection.fastpath import FastPruner
from repro.projection.stats import PruneStats
from repro.run import _file_identity, is_markup, resolve_options

__all__ = [
    "BatchError",
    "BatchResult",
    "expand_sources",
    "extract_many",
    "prune_many",
]

_GLOB_CHARS = frozenset("*?[")

#: Error kind for items killed by the per-item pool ``timeout``.
TIMEOUT = "timeout"

#: How often the pool loop wakes to look for stuck workers when a
#: ``timeout`` is set (completions interrupt the wait immediately).
_POLL_SECONDS = 0.05


# -- results ------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class BatchError:
    """One document that could not be pruned.

    ``kind`` is the exception type name (``XMLSyntaxError``,
    ``ValidationError``, ``LimitExceeded``, ``PermissionError``,
    ``StrayDocumentError`` for documents an inferred grammar refused
    under ``on_stray="error"``, ...), ``"worker-crash"`` when the worker
    process died before the item finished, or ``"timeout"`` when the
    item exceeded the per-item pool timeout and its worker was killed.
    """

    index: int
    source: str
    kind: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.index}] {self.source}: {self.kind}: {self.message}"


@dataclass(slots=True)
class BatchResult:
    """What one :func:`prune_many` (or :func:`extract_many`) call produced.

    ``results`` is index-aligned with the expanded source list: position
    ``i`` holds the item's :class:`~repro.api.PruneResult` (or
    :class:`~repro.extract.api.ExtractResult` for an extract batch), or
    ``None`` if it failed (the matching :class:`BatchError` is in
    ``errors``).  ``stats`` aggregates the per-item counters over the
    successes — :class:`~repro.projection.stats.PruneStats` or
    :class:`~repro.extract.stats.ExtractStats` to match the batch kind.
    ``respawns`` counts how many times the worker pool had to be torn
    down and rebuilt (stuck workers killed on timeout, crash retries).
    """

    results: "list[PruneResult | ExtractResult | None]"
    errors: list[BatchError] = field(default_factory=list)
    stats: "PruneStats | ExtractStats" = field(default_factory=PruneStats)
    jobs: int = 1
    seconds: float = 0.0
    respawns: int = 0

    @property
    def documents(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> int:
        return self.documents - len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def strays(self) -> int:
        """Documents an inferred grammar passed through verbatim
        (``on_stray="copy"``) instead of pruning — their bytes are exact
        input copies, never a wrong projection."""
        return sum(1 for r in self.results if getattr(r, "stray", False))

    def texts(self) -> list[str | None]:
        """Per-item pruned markup (None for failures or file outputs)."""
        return [result.text if result is not None else None for result in self.results]

    def output_paths(self) -> list[str | None]:
        """Per-item output paths (None for failures or text outputs)."""
        return [
            result.output_path if result is not None else None
            for result in self.results
        ]


# -- source expansion ---------------------------------------------------------


def expand_sources(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
) -> list[str]:
    """Flatten a corpus spec into an ordered list of concrete sources.

    Accepts a single item or an iterable of items, where each item is XML
    markup (kept verbatim), a directory (expanded to its files, sorted),
    a glob pattern (expanded, sorted), or a plain file path.  Expansion is
    deterministic: directory and glob matches are sorted, input order is
    otherwise preserved.
    """
    import glob as globlib

    if isinstance(sources, (str, os.PathLike)):
        sources = [sources]
    expanded: list[str] = []
    for item in sources:
        if not isinstance(item, (str, os.PathLike)):
            raise TypeError(f"cannot prune source of type {type(item).__name__}")
        text = os.fspath(item)
        if isinstance(item, str) and is_markup(text):
            expanded.append(text)
        elif os.path.isdir(text):
            expanded.extend(
                sorted(
                    entry.path
                    for entry in os.scandir(text)
                    if entry.is_file() and not entry.name.startswith(".")
                )
            )
        elif _GLOB_CHARS & set(text):
            expanded.extend(sorted(globlib.glob(text)))
        else:
            expanded.append(text)
    return expanded


def _output_name(index: int, source: str, suffix: str | None) -> str:
    if is_markup(source):
        return f"doc{index:05d}{suffix or '.xml'}"
    if suffix is not None:
        stem = os.path.splitext(os.path.basename(source))[0]
        return f"{stem}{suffix}" if stem else f"doc{index:05d}{suffix}"
    return os.path.basename(source) or f"doc{index:05d}.xml"


def _output_paths(
    items: list[str], out_dir: str, suffix: str | None = None
) -> list[str]:
    """Deterministic, distinct per-item output paths under ``out_dir``:
    path sources keep their basename, markup sources get
    ``doc<index>.xml``.  With ``suffix`` (extract batches: ``".jsonl"`` /
    ``".csv"``) path basenames swap their extension for it instead — the
    output is records, not markup.  The first item with a name keeps it;
    a later one is index-prefixed until its name is one no item has, so
    a prefixed name never lands on another item's."""
    names = [_output_name(index, source, suffix) for index, source in enumerate(items)]
    taken = set(names)
    first: set[str] = set()
    paths: list[str] = []
    for index, name in enumerate(names):
        if name in first:
            while name in taken:
                name = f"{index:05d}_{name}"
            taken.add(name)
        first.add(name)
        paths.append(os.path.join(out_dir, name))
    return paths


def _refuse_overwriting_sources(items: list[str], out_paths: list[str]) -> None:
    """Refuse a batch whose output path is one of its own sources (also
    through a link): writing it would destroy that input, or hand another
    item this item's output as its input."""
    sources: dict[tuple[int, int], int] = {}
    for index, source in enumerate(items):
        identity = None if is_markup(source) else _file_identity(source)
        if identity is not None:
            sources.setdefault(identity, index)
    for index, path in enumerate(out_paths):
        identity = _file_identity(path)
        if identity in sources:
            raise ReproError(
                f"output {path!r} of item {index} is the source of item "
                f"{sources[identity]}; refusing to overwrite an input"
            )


def _label(source: str) -> str:
    """How a source is named in errors and traces (markup is abbreviated)."""
    if is_markup(source):
        return f"<inline markup, {len(source)} chars>"
    return source


# -- the engine ---------------------------------------------------------------


def _check_batch(jobs: int | None, timeout: float | None) -> int:
    jobs = _resolve_jobs(jobs)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return jobs


def _per_item_deadline(opts: Any, jobs: int, timeout: float | None) -> Any:
    """With ``jobs=1`` there is no worker to kill: the batch ``timeout``
    folds into each item's limits deadline instead."""
    if timeout is None or jobs != 1:
        return opts
    resolved = resolve_limits(opts.limits)
    deadline = timeout if resolved.deadline is None else min(resolved.deadline, timeout)
    return replace(opts, limits=resolved.replace(deadline=deadline))


def prune_many(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    grammar: Grammar,
    queries_or_projector: "frozenset[str] | set[str] | list[str] | str",
    *,
    jobs: int | None = 1,
    out_dir: "str | os.PathLike[str] | None" = None,
    options: PruneOptions | None = None,
    fast: bool | None = None,
    validate: bool | None = None,
    prune_attributes: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    timeout: float | None = None,
    retry_crashes: bool = False,
    cache: ProjectorCache | None = None,
) -> BatchResult:
    """Prune a corpus of documents with one shared projector.

    ``sources`` accepts anything :func:`expand_sources` does (paths,
    globs, directories, inline markup, or a mixed list).  The projector is
    resolved once in the parent — pass queries (string or list, mixed
    XPath/XQuery) or an already-inferred projector.  ``jobs`` selects the
    worker-pool width: ``1`` (default) runs serially in the parent,
    ``None``/``0`` uses every CPU this process may run on; wider batches
    run on the process's resident pool (:func:`repro.pool.borrow`).  With
    ``out_dir`` each item is written to a file there (see
    :func:`_output_paths` for naming); without it the pruned markup is
    collected per item.

    ``limits`` applies per item exactly as in :func:`repro.prune`.
    ``timeout`` (seconds) bounds each item's wall clock from the
    *outside*: a worker stuck past it is killed, that item
    gets a ``BatchError(kind="timeout")``, and the pool is respawned so
    the remaining items still complete (with ``jobs=1`` the timeout folds
    into the per-item limits deadline instead — there is no worker to
    kill).  ``retry_crashes`` resubmits each crashed item once to a fresh
    pool before reporting it as ``worker-crash``.

    Returns a :class:`BatchResult`; per-item failures are reported there,
    not raised.  Parent-side configuration errors (a projector that does
    not cover the grammar root, an unknown query language, a bad
    ``jobs``, an output path that is one of the sources) still raise
    immediately, before any file is written.
    """
    jobs = _check_batch(jobs, timeout)
    opts = _per_item_deadline(
        resolve_options(
            options, DEFAULT_OPTIONS,
            fast=fast, validate=validate, prune_attributes=prune_attributes,
            chunk_size=chunk_size, limits=limits,
        ),
        jobs, timeout,
    )
    projector = resolve_projector(grammar, queries_or_projector, cache=cache)
    return _run_batch(
        "prune.batch", PruneStats(), grammar, projector, opts.prune_attributes,
        opts, None, sources, jobs, out_dir, timeout, retry_crashes,
    )


#: Output-file suffix per extract format (``_output_paths`` naming).
_EXTRACT_SUFFIXES = {"jsonl": ".jsonl", "csv": ".csv"}


def extract_many(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    grammar: Grammar,
    spec: ExtractSpec,
    *,
    jobs: int | None = 1,
    out_dir: "str | os.PathLike[str] | None" = None,
    options: ExtractOptions | None = None,
    format: str | None = None,
    fast: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    timeout: float | None = None,
    retry_crashes: bool = False,
    cache: ProjectorCache | None = None,
) -> BatchResult:
    """Extract one spec's records from a corpus of documents.

    The :func:`prune_many` deployment applied to tabular extraction:
    ``sources`` expands the same way, the spec's union projector is
    resolved once in the parent (keyed by the spec's content
    fingerprint), and each document runs the fused extract-while-scanning
    pass independently — same pool, per-item ``timeout``, and
    ``retry_crashes`` machinery, same in-order :class:`BatchResult`.

    With ``out_dir`` each item's records are written to a file named
    after its source with the format's suffix (``people.xml`` →
    ``people.jsonl``); without it each :class:`~repro.extract.api.
    ExtractResult` carries the records and encoded text in memory.
    ``BatchResult.stats`` aggregates
    :class:`~repro.extract.stats.ExtractStats` over the successes.
    """
    jobs = _check_batch(jobs, timeout)
    opts = _per_item_deadline(
        resolve_options(
            options, DEFAULT_EXTRACT_OPTIONS,
            format=format, fast=fast, chunk_size=chunk_size, limits=limits,
        ),
        jobs, timeout,
    )
    projector = resolve_spec_projector(grammar, spec, cache=cache)
    return _run_batch(
        "extract.batch", ExtractStats(), grammar, projector, True,
        opts, spec, sources, jobs, out_dir, timeout, retry_crashes,
    )


def _run_batch(
    span_name: str,
    stats: "PruneStats | ExtractStats",
    grammar: Grammar,
    projector: frozenset[str],
    prune_attributes: bool,
    opts: "PruneOptions | ExtractOptions",
    spec: ExtractSpec | None,
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    jobs: int,
    out_dir: "str | os.PathLike[str] | None",
    timeout: float | None,
    retry_crashes: bool,
) -> BatchResult:
    """The batch body both adapters share: one projector (a spec's, for
    an extraction), many documents, results in input order."""
    # Validates the projector against the grammar (and pre-compiles the
    # prune table) before any process is spawned: configuration errors
    # surface in the parent, not N times in the pool.
    pruner = FastPruner(grammar, projector, prune_attributes)

    items = expand_sources(sources)
    out_paths: list[str | None] = [None] * len(items)
    if out_dir is not None:
        out_dir = os.fspath(out_dir)
        suffix = None if spec is None else _EXTRACT_SUFFIXES[opts.format]  # type: ignore[union-attr]
        named = _output_paths(items, out_dir, suffix)
        _refuse_overwriting_sources(items, named)
        os.makedirs(out_dir, exist_ok=True)
        out_paths = list(named)

    batch = BatchResult(results=[None] * len(items), stats=stats, jobs=jobs)
    started = time.perf_counter()
    with obs.timed(span_name, jobs=jobs, documents=len(items)) as span:
        if jobs == 1:
            # ``pool._execute_item`` is looked up per item: it is the
            # monkeypatch point of the crash and stall tests.
            for index, (source, out_path) in enumerate(zip(items, out_paths)):
                _attempt(batch, index, source, pool._execute_item,
                         pruner, opts, source, out_path, spec)
        elif items:
            _PoolRounds(
                batch, pruner, opts, spec, items, out_paths,
                jobs, timeout, retry_crashes,
            ).run()
        span.stop()
        span.merge_counters(batch.stats.as_counters())
        span.count("errors", len(batch.errors))
    batch.seconds = span.seconds if span.seconds else time.perf_counter() - started
    batch.errors.sort(key=lambda error: error.index)
    return batch


def _record_success(
    batch: BatchResult, index: int, result: "PruneResult | ExtractResult"
) -> None:
    batch.results[index] = result
    batch.stats.merge(result.stats)  # type: ignore[arg-type]


def _record_error(
    batch: BatchResult, index: int, source: str, kind: str, message: str
) -> None:
    batch.errors.append(
        BatchError(index=index, source=_label(source), kind=kind, message=message)
    )


def _attempt(
    batch: BatchResult, index: int, source: str, call: Callable[..., Any], *args: Any
) -> None:
    """Run one item in the parent, recording its result or its error."""
    try:
        result = call(*args)
    except Exception as exc:
        _record_error(batch, index, source, type(exc).__name__, str(exc))
    else:
        _record_success(batch, index, result)


class _PoolRounds:
    """One batch on the borrowed resident pool, in rounds: a round ends
    early when stuck workers are killed (per-item ``timeout``) or the pool
    breaks with ``retry_crashes`` set, and the surviving items go to the
    respawned pool.  A crash suspect's retry is a round of its own (see
    :meth:`_resolve_crashed`).  ``BatchResult.respawns`` counts this
    call's respawns only."""

    def __init__(
        self,
        batch: BatchResult,
        pruner: FastPruner,
        opts: "PruneOptions | ExtractOptions",
        spec: ExtractSpec | None,
        items: list[str],
        out_paths: list[str | None],
        jobs: int,
        timeout: float | None,
        retry_crashes: bool,
    ) -> None:
        self.batch = batch
        self.pruner = pruner
        self.opts = opts
        self.spec = spec
        self.items = items
        self.out_paths = out_paths
        self.jobs = jobs
        self.timeout = timeout
        self.retry_crashes = retry_crashes
        self.workers: set[int] = set()
        self.crash_retried: set[int] = set()
        #: Crash suspects waiting for their retry, each in a round alone.
        self.suspects: list[int] = []

    def run(self) -> None:
        with pool.borrow(self.jobs) as self.pool:
            self.key = self.pool.pin(
                self.pruner.grammar, self.pruner.projector,
                self.pruner.table.prune_attributes,
            )
            respawns = self.pool.respawns
            todo = list(range(len(self.items)))
            while todo or self.suspects:
                generation = self.pool.generation
                if self.suspects:
                    redo, broken = self._round([self.suspects.pop(0)])
                    todo = redo + todo
                else:
                    todo, broken = self._round(todo)
                if broken and (todo or self.suspects):
                    # No-op when the round already killed its workers.
                    self.pool.respawn(generation)
            self.batch.respawns = self.pool.respawns - respawns
            if broken:
                # Detach the broken pool: the next call spawns fresh workers.
                self.pool.respawn(generation)
        if obs.enabled() and self.workers:
            obs.count("parallel.workers_used", len(self.workers))
            if self.batch.respawns:
                obs.count("parallel.respawns", self.batch.respawns)

    def _settle(self, index: int, payload: Any) -> None:
        """Fold one worker task's return value into the batch."""
        error, result, pid = absorb(payload)
        self.workers.add(pid)
        source = self.items[index]
        if error is None:
            _record_success(self.batch, index, result)
        elif error[0] == FINGERPRINT_MISMATCH:
            _attempt(
                self.batch, index, source, rerun_in_parent,
                "parallel.fingerprint_fallbacks",
                self.pruner, self.opts, source, self.out_paths[index], self.spec,
            )
        else:
            _record_error(self.batch, index, source, error[0], error[1])

    def _round(self, indices: list[int]) -> tuple[list[int], bool]:
        """One pool generation over ``indices``, in submission order;
        returns the indices that must be resubmitted to the respawned pool,
        and whether a worker crash broke the pool.

        The loop always terminates: a broken pool resolves every remaining
        future immediately, and a kill round records at least one timeout
        error, so every round either shrinks the outstanding item count or
        consumes per-index crash-retry budget (bounded by
        ``crash_retried``, see :meth:`_resolve_crashed`)."""
        timeout = self.timeout
        futures = {
            self.pool.submit(
                self.key, self.items[index], self.out_paths[index], self.opts, self.spec
            ): index
            for index in indices
        }
        redo: list[int] = []
        crashed: list[tuple[int, str]] = []
        pending = set(futures)
        first_running: dict[Any, float] = {}
        while pending:
            done, not_done = wait(
                pending,
                timeout=None if timeout is None else _POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                pending.discard(future)
                index = futures[future]
                try:
                    payload = future.result()
                except (BrokenProcessPool, OSError, RuntimeError) as exc:
                    # The worker died (or the pool broke) before this
                    # item finished.  Every remaining future resolves
                    # the same way, so the loop never hangs.  Blame is
                    # assigned at round end (_resolve_crashed): a broken
                    # pool fails *every* pending item, innocent or not.
                    crashed.append((index, str(exc) or type(exc).__name__))
                    continue
                self._settle(index, payload)
            if timeout is None or not not_done:
                continue
            now = time.monotonic()
            overdue = []
            for future in not_done:
                if future.running():
                    seen = first_running.setdefault(future, now)
                    if now - seen > timeout:
                        overdue.append(future)
            if not overdue:
                continue
            # The executor marks an item "running" once it enters the
            # call queue, which holds slightly more items than there are
            # workers — so at most ``jobs`` of the overdue futures can
            # truly be executing.  Oldest first (ties by submission
            # order) are the stuck ones; the rest were merely queued
            # behind a stuck worker and are rerun, not failed.
            overdue.sort(key=lambda f: (first_running[f], futures[f]))
            stuck = set(overdue[:self.pool.jobs])
            self.pool.respawn(self.pool.generation)
            for future in pending:
                index = futures[future]
                if future in stuck:
                    _record_error(
                        self.batch, index, self.items[index], TIMEOUT,
                        f"worker exceeded the {timeout:g}s per-item timeout",
                    )
                    continue
                if future.done() and not future.cancelled():
                    # Completed between the wait() and the kill.
                    try:
                        payload = future.result()
                    except Exception:
                        redo.append(index)
                    else:
                        self._settle(index, payload)
                    continue
                redo.append(index)
            break
        self._resolve_crashed(crashed, indices, redo)
        return redo, bool(crashed)

    def _resolve_crashed(
        self, crashed: list[tuple[int, str]], indices: list[int], redo: list[int]
    ) -> None:
        """Decide, at round end, what happens to items whose futures
        resolved as crashes.

        A broken pool fails every pending future, so most "crashes" in a
        round are collateral damage from one bad item.  Workers take items
        in submission order, one at a time, so only the first ``jobs``
        crashed items can have been running when the pool broke: in a
        round where nothing finished, the first ``jobs`` submitted.  With
        ``retry_crashes`` only those are suspects, and each gets one retry
        in a round of its own, where a crash can only be its own and is
        recorded; the rest are rerun without spending their retry.  (A
        finished item whose result the broken pool lost counts as crashed;
        if it pushes the culprit out of the suspects, the culprit is rerun
        and caught in a later round.)  So only the culprit is blamed, in a
        number of rounds that does not grow with the batch.  Without
        ``retry_crashes`` every crash is recorded as-is."""
        order = {index: position for position, index in enumerate(indices)}
        crashed.sort(key=lambda crash: order[crash[0]])
        for rank, (index, message) in enumerate(crashed):
            if not self.retry_crashes or index in self.crash_retried:
                _record_error(
                    self.batch, index, self.items[index], WORKER_CRASH, message
                )
            elif rank < self.pool.jobs:
                self.crash_retried.add(index)
                self.suspects.append(index)
            else:
                redo.append(index)
