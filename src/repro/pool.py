"""One worker pool for batch mode and the projection service.

The journal version of the paper deploys projection as one projector
over many documents: the static phase runs once in the parent and every
document is then pruned independently.  :class:`ResidentPool` is the
process pool of that deployment, shared by :func:`repro.prune_many` /
:func:`repro.extract_many` and the projection service (one pool for the
server's lifetime).  Batch calls :func:`borrow` one pool that lives as
long as the process:

* the first ``jobs > 1`` call spawns it; later calls reuse its warm
  workers and pins while it still fits them — spawned by this process,
  as wide, with the same tracing state, in the same working directory,
  no worker lost while idle, fewer than ``_MAX_PINS`` pins — and
  otherwise replace it (the new workers spawn on the call's first
  submit);
* a call that finds it busy with another thread runs on a private pool
  and shuts that down when it returns;
* a call that broke the pool detaches it, and a call that raised
  retires it, so no later call inherits a broken pool;
* it shuts down at interpreter exit.  Until then its idle workers stay;
  each exits by itself, between tasks, once its parent is gone without
  having shut it down (SIGKILL, ``os._exit``).

Per pool:

* every (grammar, projector, attribute-flag) pair a job uses is
  **pinned**: the parent compiles the :class:`~repro.projection.fastpath.
  FastPruner` once, validating the projector before any worker sees it.
  Pins known when the workers spawn reach their initializer as objects
  (inherited by fork, never unpickled); a pair pinned later ships
  pickled with its tasks and is rebuilt and memoized on first touch.
  Either way the worker re-derives the grammar fingerprint and refuses a
  grammar that did not survive the process boundary intact
  (``fingerprint-mismatch``) — the parent then re-runs that item itself
  (:func:`rerun_in_parent`), so nothing is ever pruned against the
  wrong grammar;
* every task runs one document through the facade
  (:func:`_execute_item`) and returns ``(error, result, records,
  counters, pid)``: a bad document travels back as data, so one hostile
  input cannot poison the pool;
* workers trace into a process-local :class:`~repro.obs.MemorySink`;
  :func:`absorb` merges each task's span records and counters into the
  parent's tracer, tagged with the worker pid;
* :meth:`ResidentPool.respawn` kills and replaces the workers, keeping
  every pin (generation-counted, so concurrent callers that saw the same
  broken pool rebuild it once);
* pool spawns are wrapped in :func:`_fork_quiet` — the server forks from
  its event-loop thread on respawn, which Python 3.12+ flags with a
  fork-in-multithreaded-process :class:`DeprecationWarning`; the pruning
  workers share no locks with the parent (they only read the inherited
  module state), so the warning is noise here.

Batch mode adds its round logic (per-item ``timeout``, crash blame,
``retry_crashes``) on top, in :mod:`repro.parallel`; the service adds
its retry-once on a crashed worker, in :mod:`repro.service.server`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

from repro import obs
from repro.api import prune
from repro.core.cache import grammar_fingerprint
from repro.dtd.grammar import Grammar
from repro.extract.api import extract
from repro.projection.fastpath import FastPruner
from repro.run import _file_identity

__all__ = ["PinKey", "ResidentPool", "absorb", "rerun_in_parent"]

#: Crash kind reported for items whose worker died before finishing them.
WORKER_CRASH = "worker-crash"

#: Error kind a worker reports when the grammar fingerprint does not
#: survive the process boundary; the parent re-runs such items itself.
FINGERPRINT_MISMATCH = "fingerprint-mismatch"

#: What pins a compiled pruner: (grammar fingerprint, projector, flag).
PinKey = tuple[str, frozenset, bool]

#: How often a worker checks that the process that spawned it is alive.
_PARENT_POLL_SECONDS = 0.5

#: The resident batch pool is replaced once it holds this many pins: a
#: long-lived process that batches over ever new projectors would
#: otherwise grow without bound, in the parent and in every worker.
_MAX_PINS = 16


def _resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` mean every CPU this process may run on (its
    affinity mask where the platform has one, not the machine's count)."""
    if jobs is None or jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def _kill_processes(executor: ProcessPoolExecutor) -> None:
    """Forcibly terminate every worker of ``executor`` (stuck workers
    cannot be cancelled: a running future ignores ``cancel()``)."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        process.kill()


@contextmanager
def _fork_quiet() -> Iterator[None]:
    """Silence the 3.12+ fork-in-multithreaded-process deprecation for
    one pool spawn (see the module docstring for why it is safe here)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*fork", category=DeprecationWarning)
        yield


# -- one item ------------------------------------------------------------------


def _execute_item(
    pruner: FastPruner,
    options: Any,
    source: str,
    out_path: str | None,
    spec: Any = None,
) -> Any:
    """Run one document through the facade: a prune, or with ``spec`` an
    extraction (its projector resolves through the process-local cache,
    one inference per process).  Every item runs here — a worker task,
    batch mode's serial path, the parent's re-run — so this is the
    monkeypatch point of the fork-inheritance crash and stall tests."""
    if spec is None:
        return prune(source, pruner.grammar, pruner.projector, out=out_path, options=options)
    return extract(source, pruner.grammar, spec, out=out_path, options=options)


def rerun_in_parent(
    counter: str,
    pruner: FastPruner,
    options: Any,
    source: str,
    out_path: str | None,
    spec: Any = None,
) -> Any:
    """The fingerprint-mismatch degradation, shared by batch and the
    service: the worker's copy of the grammar cannot be trusted, the
    parent's can — re-run the item here through the event pipeline
    (``counter`` names the subsystem's fallback counter)."""
    obs.count(counter)
    return _execute_item(pruner, replace(options, fast=False), source, out_path, spec)


# -- worker side ---------------------------------------------------------------

#: The worker's pinned pruners, installed by :func:`_init_worker`.
_PINS: dict[PinKey, FastPruner] = {}
#: The worker's trace sink (``None`` when the parent does not trace).
_SINK: obs.MemorySink | None = None
#: Held while the worker runs a task, so it never exits halfway through
#: writing an output.
_BUSY = threading.Lock()


def _pin(key: PinKey, pruner: FastPruner) -> FastPruner | None:
    """Verify the fingerprint handshake and memoize the pruner; ``None``
    when the grammar did not survive the transfer."""
    if grammar_fingerprint(pruner.grammar) != key[0]:
        return None
    _PINS[key] = pruner
    return pruner


def _exit_with_parent(parent: int) -> None:
    """Exit the worker, between tasks, once its parent is gone.  An idle
    worker blocks reading the task queue, whose pipe its siblings hold
    open, so without this it outlives a parent that died without shutting
    the pool down (SIGKILL, ``os._exit``)."""
    while True:
        time.sleep(_PARENT_POLL_SECONDS)
        if os.getppid() != parent and _BUSY.acquire(blocking=False):
            os._exit(0)


def _init_worker(pins: list[tuple[PinKey, FastPruner]], tracing: bool) -> None:
    global _SINK
    for key, pruner in pins:
        # A pair that fails the handshake is simply not pinned: its tasks
        # report the mismatch as data (raising here would break the whole
        # pool — the initializer failure poisons every item).
        _pin(key, pruner)
    _SINK = None
    if tracing:
        _SINK = obs.MemorySink()
        obs.configure(_SINK)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _task(
    key: PinKey,
    payload: bytes | None,
    source: str,
    out_path: str | None,
    options: Any,
    spec: Any,
):
    """One item inside a worker; returns ``(error-or-None, result-or-None,
    records, counters, pid)`` and never raises for a bad document."""
    error: tuple[str, str] | None = None
    result = None
    pruner = _PINS.get(key)
    if pruner is None and payload is not None:
        pruner = _pin(key, pickle.loads(payload))
    if pruner is None:
        error = (
            FINGERPRINT_MISMATCH,
            "grammar fingerprint changed across the process boundary; "
            "refusing to prune against a different grammar",
        )
    else:
        try:
            with _BUSY:
                result = _execute_item(pruner, options, source, out_path, spec)
            if getattr(result, "events", None) is not None:
                result.events = None  # iterators never cross the process boundary
        except Exception as exc:
            error = (type(exc).__name__, str(exc))
    records: list[dict[str, Any]] = []
    counters: dict[str, int | float] = {}
    if _SINK is not None:
        # Ship (and reset) exactly this task's trace delta.
        tracer = obs.get_tracer()
        records = list(_SINK.records)
        _SINK.records.clear()
        counters = tracer.counters
        tracer._counters.clear()
    return error, result, records, counters, os.getpid()


# -- parent side ---------------------------------------------------------------


def absorb(payload) -> tuple[tuple[str, str] | None, Any, int]:
    """Fold one task's trace into the parent's tracer (span records
    tagged with the worker pid); returns ``(error, result, pid)``."""
    error, result, records, counters, pid = payload
    tracer = obs.get_tracer()
    if tracer.enabled and (records or counters):
        for record in records:
            record.setdefault("attrs", {})["worker"] = pid
        tracer.absorb(records, counters)
    return error, result, pid


class ResidentPool:
    """A process pool whose workers keep their pinned pruners across
    tasks (and, in the service, across requests).

    The workers spawn on the first :meth:`submit`, so pins made before
    it reach them as objects.  Not thread-safe by itself: the server
    drives it from one event-loop thread (``respawn`` is serialized
    behind an asyncio lock there).
    """

    def __init__(self, jobs: int | None = None, tracing: bool = False) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.tracing = tracing
        self.respawns = 0
        #: Bumped on every respawn so concurrent requests that all saw the
        #: same broken pool trigger exactly one rebuild.
        self.generation = 0
        self._pruners: dict[PinKey, FastPruner] = {}
        #: Pickled pruners for pins the current workers did not start with.
        self._payloads: dict[PinKey, bytes] = {}
        self._spawned: frozenset[PinKey] = frozenset()
        self._executor: ProcessPoolExecutor | None = None

    def _spawn(self) -> ProcessPoolExecutor:
        # Forked children inherit unflushed sink buffers and would write
        # those lines again; flush the parent's sinks first.
        for sink in getattr(obs.get_tracer(), "sinks", ()):
            sink.flush()
        self._spawned = frozenset(self._pruners)
        with _fork_quiet():
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(list(self._pruners.items()), self.tracing),
            )
        return self._executor

    # -- pinning ---------------------------------------------------------

    def pin(
        self,
        grammar: Grammar,
        projector: "frozenset[str] | set[str]",
        prune_attributes: bool = True,
    ) -> PinKey:
        """Compile (once) and register a (grammar, projector) pair;
        returns the key tasks are submitted under.  Raises in the parent
        if the projector does not cover the grammar."""
        key: PinKey = (
            grammar_fingerprint(grammar),
            frozenset(projector),
            bool(prune_attributes),
        )
        if key not in self._pruners:
            self._pruners[key] = FastPruner(
                grammar, frozenset(projector), bool(prune_attributes)
            )
        return key

    def pruner(self, key: PinKey) -> FastPruner:
        """The parent-side compiled pruner for a pinned key (used for the
        fingerprint-mismatch re-run)."""
        return self._pruners[key]

    @property
    def pinned(self) -> int:
        return len(self._pruners)

    def pinned_for(self, fingerprint: str) -> int:
        """How many pinned pairs belong to one grammar fingerprint."""
        return sum(1 for key in self._pruners if key[0] == fingerprint)

    def unpin_grammar(self, fingerprint: str) -> int:
        """Drop every pinned pair for one grammar fingerprint; returns the
        number removed.  The next request against that grammar re-compiles
        and re-ships — this is how a dependent update invalidates resident
        state, while a proven-independent one leaves the pins alone."""
        keys = [key for key in self._pruners if key[0] == fingerprint]
        for key in keys:
            del self._pruners[key]
            self._payloads.pop(key, None)
        return len(keys)

    # -- execution -------------------------------------------------------

    def submit(
        self,
        key: PinKey,
        source: str,
        out_path: str | None,
        options: Any,
        spec: Any = None,
    ) -> Future:
        """Queue one prune (or, with ``spec``, one extraction).  A pair
        the workers did not start with ships pickled alongside, so a
        worker that has not seen it yet can rebuild it."""
        executor = self._executor if self._executor is not None else self._spawn()
        payload = None
        if key not in self._spawned:
            payload = self._payloads.get(key)
            if payload is None:
                payload = self._payloads[key] = pickle.dumps(self._pruners[key])
        return executor.submit(_task, key, payload, source, out_path, options, spec)

    def respawn(self, generation: int) -> bool:
        """Kill the workers; the next :meth:`submit` starts fresh ones
        holding every pinned pair.  No-op (returns False) when
        ``generation`` is stale — someone already respawned past the pool
        the caller saw.

        The old pool is detached before it is torn down, so a submit
        racing the teardown (the service respawns on a worker thread)
        starts a fresh pool instead of feeding the killed one.  Waiting
        for the teardown settles every future of the old pool before this
        returns, which batch mode's kill path relies on."""
        if generation != self.generation:
            return False
        executor, self._executor = self._executor, None
        self.generation += 1
        self.respawns += 1
        if executor is not None:
            _kill_processes(executor)
            executor.shutdown(wait=True, cancel_futures=True)
        return True

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


# -- the resident batch pool -----------------------------------------------------

#: The batch pool with what it was made for: (pool, (pid, jobs, tracing,
#: working directory)).
_resident: "tuple[ResidentPool, tuple[int, int, bool, Any]] | None" = None
#: Held by the one batch call using the resident pool.
_resident_lock = threading.Lock()


def _broken(pool: ResidentPool) -> bool:
    """Whether the pool's workers broke (one died, say killed from
    outside while the pool sat idle): a submit would raise, not run."""
    return pool._executor is not None and bool(pool._executor._broken)


@contextmanager
def borrow(jobs: int) -> Iterator[ResidentPool]:
    """The pool for one batch call, ``jobs`` workers wide: the resident
    pool while it still fits (see the module docstring), else a fresh
    one that becomes resident.  An exception out of the call retires the
    pool, since its workers may still hold the call's items."""
    global _resident
    tracing = obs.enabled()
    if not _resident_lock.acquire(blocking=False):
        # Another thread's call holds the resident pool: a shared one
        # would see that call's timeout kills and respawns.
        private = ResidentPool(jobs, tracing=tracing)
        try:
            yield private
        finally:
            private.shutdown()
        return
    try:
        # Workers resolve relative paths in the directory they were
        # forked in; ``None`` when the working directory is gone.
        made_for = (os.getpid(), jobs, tracing, _file_identity("."))
        if _resident is not None and (
            _resident[1] != made_for
            or made_for[3] is None
            or _broken(_resident[0])
            or _resident[0].pinned >= _MAX_PINS
        ):
            _retire()
        if _resident is None:
            _resident = (ResidentPool(jobs, tracing=tracing), made_for)
        try:
            yield _resident[0]
        except BaseException:
            _retire()
            raise
    finally:
        _resident_lock.release()


def _retire() -> None:
    """Drop the resident pool, shutting it down unless another process
    spawned it (a forked child must leave its parent's workers alone)."""
    global _resident
    resident, _resident = _resident, None
    if resident is not None and resident[1][0] == os.getpid():
        resident[0].shutdown()


atexit.register(_retire)
