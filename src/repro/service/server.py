"""The projection server: resident static analysis, per-request pruning.

The paper splits the pipeline into a *static* phase (parse the DTD, run
the Fig. 1/2 inference, build the projector — once per (DTD, workload)
pair) and a *per-document* phase (prune).  A one-shot CLI pays the static
phase on every invocation; :class:`ProjectionServer` keeps it resident:

* one shared, concurrency-safe :class:`~repro.core.cache.ProjectorCache`
  memoizes inference across every connection;
* parsed grammars are memoized by content hash, so thousands of requests
  shipping the same DTD text parse it once;
* pruning runs on a persistent :class:`~repro.service.workers.
  ResidentPool` whose workers hold the compiled prune tables pinned;
* admission control bounds the work the server accepts: a server-wide
  in-flight cap (structured 429-style refusal when full — never a hang)
  and a per-connection pipelining cap;
* SIGTERM/SIGINT drains gracefully: stop accepting, refuse new frames
  with a structured 503, finish every admitted request, flush obs sinks,
  exit 0.

Everything reports through :mod:`repro.obs`: a ``service.request`` span
per admitted request (tagged with connection and request ids), the
``service.queue_depth`` gauge, and ``service.requests`` /
``service.refusals`` / ``service.respawns`` counters.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Callable

from repro import obs
from repro.api import MarkupWriter, PruneOptions, PruneResult
from repro.core.cache import ProjectorCache, default_cache, grammar_fingerprint
from repro.dtd.grammar import Grammar, grammar_from_text
from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.extract.api import ExtractOptions, ExtractResult, RecordAssembler
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.limits import resolve_limits
from repro.pool import FINGERPRINT_MISMATCH, WORKER_CRASH, absorb, rerun_in_parent
from repro.run import Attestation, attest, source_kind
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    LEDGER_HIT,
    LEDGER_RECORDED,
    OPS,
    error_to_wire,
    extract_stats_to_wire,
    read_frame,
    stats_from_wire,
    stats_to_wire,
)
from repro.service.workers import ResidentPool, WorkerFailure
from repro.static.independence import independent

__all__ = ["BackgroundServer", "ProjectionServer", "serve_background"]


class _Connection:
    """Per-connection bookkeeping: id, write serialization, in-flight cap."""

    __slots__ = ("id", "writer", "lock", "inflight")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.writer = writer
        self.lock = asyncio.Lock()
        self.inflight = 0

    async def send(self, payload: dict[str, Any]) -> None:
        from repro.service.protocol import encode_frame

        async with self.lock:
            self.writer.write(encode_frame(payload))
            with contextlib.suppress(ConnectionError):
                await self.writer.drain()


class ProjectionServer:
    """One long-running projection service (see the module docstring).

    Construct (the resident pool forks here), :meth:`start` inside a
    running event loop, then either :meth:`serve_until_drained` or drive
    :meth:`drain` yourself.  :meth:`run` is the blocking CLI entry point;
    :func:`serve_background` the in-process (test/notebook) one.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        cache: ProjectorCache | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = cache if cache is not None else default_cache()
        self.pool = ResidentPool(self.config.jobs, tracing=self.config.tracing)
        self._ledger = None
        if self.config.ledger is not None:
            from repro.ledger import Ledger

            self._ledger = Ledger(self.config.ledger)
        self.port: int | None = None
        self._grammars: dict[tuple, Grammar] = {}
        self._limits = self.config.resolved_limits()
        self._inflight = 0
        self._inflight_high_water = 0
        self._requests_served = 0
        self._static_checks = 0
        self._static_retained = 0
        self._static_invalidated = 0
        self._refusals = 0
        self._refusals_by_scope: dict[str, int] = {}
        self._latency = obs.Histogram("service.request_seconds")
        self._draining = False
        self._started = 0.0
        self._conn_ids = itertools.count(1)
        self._req_seq = itertools.count(1)
        self._connections: set[_Connection] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._drain_requested: asyncio.Event | None = None
        self._drained: asyncio.Event | None = None
        self._respawn_lock: asyncio.Lock | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "ProjectionServer":
        """Bind and start accepting (call inside a running loop)."""
        self._drain_requested = asyncio.Event()
        self._drained = asyncio.Event()
        self._respawn_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        return self

    def request_drain(self) -> None:
        """Ask the serve loop to drain (signal handlers land here)."""
        assert self._drain_requested is not None
        self._drain_requested.set()

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`request_drain` fires, then drain fully."""
        assert self._drain_requested is not None
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, flush obs, shut the
        pool down.  Idempotent; concurrent callers wait for the first."""
        assert self._drained is not None
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
        for conn in list(self._connections):
            with contextlib.suppress(Exception):
                conn.writer.close()
        if self._server is not None:
            # Since 3.12.1 this waits for every connection to close, so
            # it comes after the connections are closed above.
            await self._server.wait_closed()
        await asyncio.to_thread(self.pool.shutdown)
        if self._ledger is not None:
            self._ledger.close()
        obs.flush()
        self._drained.set()

    def run(self, ready: "Callable[[ProjectionServer], None] | None" = None) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT, drain, return
        0.  ``ready`` is called (inside the loop) once the port is bound."""

        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(signum, self.request_drain)
            if ready is not None:
                ready(self)
            await self.serve_until_drained()

        asyncio.run(main())
        return 0

    # -- connection handling ---------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(next(self._conn_ids), writer)
        self._connections.add(conn)
        try:
            while True:
                try:
                    frame = await read_frame(reader, self.config.max_frame_bytes)
                except ProtocolError as exc:
                    # The stream position is unrecoverable: answer once,
                    # then drop the connection.
                    await conn.send({"id": None, "ok": False, "error": error_to_wire(exc)})
                    break
                if frame is None:
                    break
                await self._dispatch(conn, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            with contextlib.suppress(Exception):
                writer.close()

    async def _refuse(
        self, conn: _Connection, req_id: Any, error: ServiceError
    ) -> None:
        self._refusals += 1
        scope = getattr(error, "scope", None) or (
            "draining" if isinstance(error, ServiceUnavailable) else "server"
        )
        self._refusals_by_scope[scope] = self._refusals_by_scope.get(scope, 0) + 1
        obs.count("service.refusals")
        await conn.send({"id": req_id, "ok": False, "error": error_to_wire(error)})

    async def _dispatch(self, conn: _Connection, frame: dict[str, Any]) -> None:
        req_id = frame.get("id")
        op = frame.get("op")
        if req_id is None or not isinstance(req_id, (int, str)):
            await conn.send(
                {"id": None, "ok": False,
                 "error": error_to_wire(ProtocolError("request is missing an id"))}
            )
            return
        if op not in OPS:
            await conn.send(
                {"id": req_id, "ok": False,
                 "error": error_to_wire(ProtocolError(f"unknown operation {op!r}"))}
            )
            return

        # health/stats answer inline on the loop — they must stay
        # observable while the queue is full or the server drains.
        if op == "health":
            self._requests_served += 1
            await conn.send({"id": req_id, "ok": True, "result": self._health()})
            return
        if op == "stats":
            self._requests_served += 1
            await conn.send({"id": req_id, "ok": True, "result": self._stats()})
            return

        # -- admission control ------------------------------------------
        if self._draining:
            await self._refuse(
                conn, req_id, ServiceUnavailable("server is draining")
            )
            return
        weight = (
            max(1, len(frame.get("sources", ()))) if op == "prune_batch" else 1
        )
        if self._inflight + weight > self.config.queue_limit:
            await self._refuse(
                conn, req_id,
                ServiceOverloaded(
                    f"request queue is full ({self._inflight} in flight, "
                    f"limit {self.config.queue_limit})",
                    scope="server",
                ),
            )
            return
        if conn.inflight >= self.config.per_connection:
            await self._refuse(
                conn, req_id,
                ServiceOverloaded(
                    f"connection has {conn.inflight} requests in flight "
                    f"(cap {self.config.per_connection})",
                    scope="connection",
                ),
            )
            return

        self._inflight += weight
        conn.inflight += 1
        if self._inflight > self._inflight_high_water:
            self._inflight_high_water = self._inflight
        obs.gauge("service.queue_depth", self._inflight)
        task = asyncio.create_task(
            self._serve_request(conn, req_id, op, frame, weight)
        )
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    async def _serve_request(
        self, conn: _Connection, req_id: Any, op: str, frame: dict[str, Any],
        weight: int,
    ) -> None:
        span = obs.span(
            "service.request",
            op=op, connection=conn.id, request=next(self._req_seq),
        ).start()
        admitted = time.perf_counter()
        try:
            try:
                if op == "analyze":
                    result = await self._do_analyze(frame)
                elif op in ("prune", "extract"):
                    result = await self._do_run(frame, op)
                elif op == "check_update":
                    result = await self._do_check_update(frame)
                else:
                    result = await self._do_prune_batch(frame)
                response: dict[str, Any] = {"id": req_id, "ok": True, "result": result}
            except WorkerFailure as exc:
                span.set(error=exc.kind)
                response = {"id": req_id, "ok": False, "error": _failure_wire(exc)}
            except Exception as exc:
                span.set(error=type(exc).__name__)
                response = {"id": req_id, "ok": False, "error": error_to_wire(exc)}
            await conn.send(response)
        finally:
            self._inflight -= weight
            conn.inflight -= 1
            self._requests_served += 1
            self._latency.observe(time.perf_counter() - admitted)
            obs.gauge("service.queue_depth", self._inflight)
            obs.count("service.requests")
            span.finish()

    # -- request bodies --------------------------------------------------

    def _health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "serving",
            "pid": os.getpid(),
            "uptime": time.monotonic() - self._started,
            "inflight": self._inflight,
        }

    def _stats(self) -> dict[str, Any]:
        cache = self.cache.stats
        return {
            "uptime": time.monotonic() - self._started,
            "requests_served": self._requests_served,
            "refusals": self._refusals,
            "refusals_by_scope": dict(self._refusals_by_scope),
            "inflight": self._inflight,
            "queue_limit": self.config.queue_limit,
            "per_connection": self.config.per_connection,
            "queue": {
                "depth": self._inflight,
                "high_water": self._inflight_high_water,
                "limit": self.config.queue_limit,
            },
            "latency": self._latency.snapshot(),
            "connections": len(self._connections),
            "draining": self._draining,
            "cache": {**cache.as_dict(), "entries": len(self.cache)},
            "grammars": len(self._grammars),
            "pool": {
                "jobs": self.pool.jobs,
                "pinned": self.pool.pinned,
                "respawns": self.pool.respawns,
            },
            "static": {
                "checks": self._static_checks,
                "retained": self._static_retained,
                "invalidated": self._static_invalidated,
            },
            "ledger": {
                "enabled": self._ledger is not None,
                "entries": len(self._ledger) if self._ledger is not None else 0,
                "hits": self._ledger.hits if self._ledger is not None else 0,
                "records": (
                    self._ledger.appended if self._ledger is not None else 0
                ),
            },
        }

    def _grammar_from(self, frame: dict[str, Any]) -> Grammar:
        """Resolve (and memoize, by content hash) the request's grammar."""
        spec = frame.get("grammar")
        if not isinstance(spec, dict):
            raise ProtocolError("request is missing its grammar object")
        if spec.get("xmark"):
            key: tuple = ("xmark",)
            if key not in self._grammars:
                from repro.workloads.xmark import xmark_grammar

                self._grammars[key] = xmark_grammar()
            return self._grammars[key]
        wire = spec.get("grammar")
        if wire is not None:
            # A pre-built grammar (e.g. client-side inference) shipped in
            # its wire form; memoized by its canonical hash so repeated
            # requests pin the same object.
            if not isinstance(wire, dict):
                raise ProtocolError("'grammar' payload must be an object")
            from repro.ledger.canonical import hash_canonical
            from repro.schema.wire import grammar_from_wire

            key = ("wire", hash_canonical(wire))
            if key not in self._grammars:
                try:
                    self._grammars[key] = grammar_from_wire(wire)
                except ReproError as exc:
                    raise ProtocolError(f"bad grammar payload: {exc}") from None
            return self._grammars[key]
        xsd = spec.get("xsd")
        if isinstance(xsd, str):
            from repro.schema.xsd import grammar_from_xsd

            xsd_root = spec.get("root")
            if xsd_root is not None and not isinstance(xsd_root, str):
                raise ProtocolError("grammar 'root' must be a string tag")
            key = (
                "xsd",
                hashlib.sha256(xsd.encode("utf-8")).hexdigest(),
                xsd_root,
            )
            if key not in self._grammars:
                self._grammars[key] = grammar_from_xsd(xsd, xsd_root)
            return self._grammars[key]
        dtd = spec.get("dtd")
        root = spec.get("root")
        if not isinstance(dtd, str) or not isinstance(root, str):
            raise ProtocolError(
                "grammar object needs 'dtd' text and 'root' (or 'xsd' "
                "text, a 'grammar' wire payload, or 'xmark': true)"
            )
        key = ("dtd", hashlib.sha256(dtd.encode("utf-8")).hexdigest(), root)
        if key not in self._grammars:
            self._grammars[key] = grammar_from_text(dtd, root)
        return self._grammars[key]

    def _projector_from(
        self, frame: dict[str, Any], grammar: Grammar
    ) -> frozenset[str]:
        names = frame.get("projector")
        if names is not None:
            if not isinstance(names, list):
                raise ProtocolError("'projector' must be a list of names")
            return grammar.check_projector(frozenset(names))
        queries = frame.get("queries")
        if isinstance(queries, str):
            queries = [queries]
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise ProtocolError("request needs 'queries' (or a 'projector' list)")
        return self.cache.analyze(grammar, queries).projector

    def _options_from(
        self, frame: dict[str, Any], cls: "type[PruneOptions] | type[ExtractOptions]"
    ) -> "PruneOptions | ExtractOptions":
        wire = frame.get("options", {})
        if not isinstance(wire, dict):
            raise ProtocolError("'options' must be an object")
        try:
            options = cls.from_wire(wire)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad options: {exc}") from None
        # Clamp to the server profile: clients tighten, never relax.
        effective = self._limits.intersect(resolve_limits(options.limits))
        return replace(options, limits=effective)

    @staticmethod
    def _source_from(item: Any) -> str:
        """One prunable source: inline markup or a server-side path."""
        if isinstance(item, str):
            return item
        if isinstance(item, dict) and isinstance(item.get("path"), str):
            return item["path"]
        raise ProtocolError(
            "each source must be markup/path text or {'path': ...}"
        )

    async def _do_analyze(self, frame: dict[str, Any]) -> dict[str, Any]:
        grammar = self._grammar_from(frame)
        queries = frame.get("queries")
        if isinstance(queries, str):
            queries = [queries]
        if not isinstance(queries, list):
            raise ProtocolError("analyze needs a 'queries' list")
        result = self.cache.analyze(grammar, queries)
        return {
            "projector": sorted(result.projector),
            "per_query_sizes": [len(p) for p in result.per_query],
            "seconds": result.span.seconds if result.span is not None else 0.0,
            "cache": self.cache.stats.as_dict(),
        }

    async def _do_run(self, frame: dict[str, Any], op: str) -> dict[str, Any]:
        """One ``prune`` or ``extract`` request: ledger first (a recorded
        run is served without touching the pool), then the resident pool."""
        grammar = self._grammar_from(frame)
        spec = None
        if op == "extract":
            spec_wire = frame.get("spec")
            if not isinstance(spec_wire, dict):
                raise ProtocolError("extract needs a 'spec' object")
            try:
                spec = ExtractSpec.from_wire(spec_wire)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"bad spec: {exc}") from None
            options = self._options_from(frame, ExtractOptions)
            # The spec's union projector resolves through the shared cache —
            # repeated workloads hit on the spec's content fingerprint.
            projector = self.cache.projector_for_spec(grammar, spec)
            consumer: "MarkupWriter | RecordAssembler" = RecordAssembler(
                grammar, projector, spec, options
            )
        else:
            projector = self._projector_from(frame, grammar)
            options = self._options_from(frame, PruneOptions)
            consumer = MarkupWriter(grammar, projector, options)
        source = self._source_from(frame.get("source"))
        out_path = frame.get("out_path")
        if out_path is not None and not isinstance(out_path, str):
            raise ProtocolError("'out_path' must be a string path")
        started = time.perf_counter()
        entry = None
        if self._ledger is not None:
            entry = await asyncio.to_thread(self._attest, frame, consumer, source)
            if entry is not None and consumer.servable:
                served = await asyncio.to_thread(entry.serve, consumer, out_path)
                if served is not None:
                    payload = _result_wire(
                        served, stats=_stats_wire(served.stats), worker=None,
                        ledger=LEDGER_HIT,
                    )
                    payload["seconds"] = time.perf_counter() - started
                    return payload
        key = self.pool.pin(
            grammar, projector, getattr(options, "prune_attributes", True)
        )
        result, worker = await self._execute_pooled(key, source, out_path, options, spec)
        payload = _result_wire(
            result, stats=_stats_wire(result.stats),
            seconds=time.perf_counter() - started, worker=worker,
        )
        if entry is not None:
            await asyncio.to_thread(
                entry.record, op, result.stats,
                text=result.text, output_path=result.output_path,
                records=getattr(result, "records", None),
            )
            payload["ledger"] = LEDGER_RECORDED
        return payload

    async def _do_check_update(self, frame: dict[str, Any]) -> dict[str, Any]:
        """The update-independence judgment, wired into pin retention:
        an update proven independent of the workload's projector leaves
        every resident payload pinned (the compiled state stays warm); a
        possibly-dependent one unpins the grammar's pairs so the next
        request re-establishes them."""
        grammar = self._grammar_from(frame)
        update_paths = frame.get("update_paths")
        if isinstance(update_paths, str):
            update_paths = [update_paths]
        if not isinstance(update_paths, list) or not all(
            isinstance(path, str) for path in update_paths
        ):
            raise ProtocolError("check_update needs an 'update_paths' list")
        projector = self._projector_from(frame, grammar)
        report = independent(grammar, update_paths, projector, cache=self.cache)
        fingerprint = grammar_fingerprint(grammar)
        retained = invalidated = 0
        if report.independent:
            retained = self.pool.pinned_for(fingerprint)
            if retained:
                obs.count("static.cache_retained", retained)
        else:
            invalidated = self.pool.unpin_grammar(fingerprint)
        self._static_checks += 1
        self._static_retained += retained
        self._static_invalidated += invalidated
        return {
            "independent": report.independent,
            "reason": report.reason,
            "impact": sorted(report.impact),
            "overlap": sorted(report.overlap),
            "projector": sorted(report.projector),
            "retained": retained,
            "invalidated": invalidated,
        }

    async def _do_prune_batch(self, frame: dict[str, Any]) -> dict[str, Any]:
        from repro.parallel import _output_paths
        from repro.projection.stats import PruneStats

        grammar = self._grammar_from(frame)
        projector = self._projector_from(frame, grammar)
        options = self._options_from(frame, PruneOptions)
        sources_wire = frame.get("sources")
        if not isinstance(sources_wire, list):
            raise ProtocolError("prune_batch needs a 'sources' list")
        sources = [self._source_from(item) for item in sources_wire]
        out_dir = frame.get("out_dir")
        out_paths: list[str | None]
        if out_dir is not None:
            if not isinstance(out_dir, str):
                raise ProtocolError("'out_dir' must be a string path")
            os.makedirs(out_dir, exist_ok=True)
            out_paths = list(_output_paths(sources, out_dir))
        else:
            out_paths = [None] * len(sources)
        key = self.pool.pin(grammar, projector, options.prune_attributes)
        started = time.perf_counter()

        async def one(source: str, out_path: str | None) -> dict[str, Any]:
            try:
                result, worker = await self._execute_pooled(
                    key, source, out_path, options
                )
            except WorkerFailure as exc:
                return {"ok": False, "error": _failure_wire(exc)}
            except Exception as exc:
                return {"ok": False, "error": error_to_wire(exc)}
            return _result_wire(
                result, ok=True, stats=stats_to_wire(result.stats), worker=worker
            )

        items = await asyncio.gather(
            *(one(source, out) for source, out in zip(sources, out_paths))
        )
        merged = PruneStats()
        for item in items:
            if item["ok"]:
                merged.merge(stats_from_wire(item["stats"]))
        return {
            "items": list(items),
            "stats": stats_to_wire(merged),
            "succeeded": sum(1 for item in items if item["ok"]),
            "seconds": time.perf_counter() - started,
        }

    # -- ledger plumbing -------------------------------------------------

    def _attest(
        self,
        frame: dict[str, Any],
        consumer: "MarkupWriter | RecordAssembler",
        source: str,
    ) -> Attestation | None:
        """Fingerprint one admitted request for the attestation ledger
        (blocking: hashes the source — call via ``asyncio.to_thread``).
        Provenance keeps the request's own grammar object (inline DTD
        text or the XMark marker), so ``verify-ledger`` can replay
        server-recorded entries with no out-of-band grammar."""
        prov: dict[str, Any] = {}
        gspec = frame.get("grammar")
        if isinstance(gspec, dict):
            if gspec.get("xmark"):
                prov["grammar"] = {"xmark": True}
            elif isinstance(gspec.get("grammar"), dict):
                prov["grammar"] = {"grammar": gspec["grammar"]}
            elif isinstance(gspec.get("xsd"), str):
                prov["grammar"] = {
                    "xsd": gspec["xsd"], "root": gspec.get("root"),
                }
            elif isinstance(gspec.get("dtd"), str):
                prov["grammar"] = {
                    "dtd": gspec["dtd"], "root": gspec.get("root"),
                }
        assert self._ledger is not None
        try:
            return attest(self._ledger, consumer, source, source_kind(source), prov)
        except OSError:
            # An unreadable path source fails identically in the worker,
            # with the structured error the client expects — let that
            # path produce it rather than dying here.
            return None

    # -- pool plumbing ---------------------------------------------------

    async def _execute_pooled(
        self,
        key,
        source: str,
        out_path: str | None,
        options: "PruneOptions | ExtractOptions",
        spec: ExtractSpec | None = None,
    ) -> "tuple[PruneResult | ExtractResult, int | None]":
        """Run one prune (or, with ``spec``, one extraction) on the
        resident pool.

        A crashed worker triggers one pool respawn (shared across every
        request that saw the same broken generation) and one retry; a
        fingerprint-mismatch refusal degrades to a run in this process
        (on a thread) with the parent's own compiled pruner, exactly like
        ``prune_many`` (the concurrency-safe cache and pure pruners make
        this thread-safe).
        """
        for attempt in (0, 1):
            generation = self.pool.generation
            try:
                payload = await asyncio.wrap_future(
                    self.pool.submit(key, source, out_path, options, spec)
                )
            except (BrokenProcessPool, OSError, RuntimeError) as exc:
                await self._respawn(generation)
                if attempt == 0:
                    continue
                raise WorkerFailure(
                    WORKER_CRASH, str(exc) or type(exc).__name__
                ) from None
            error, result, pid = absorb(payload)
            if error is None:
                return result, pid
            if error[0] == FINGERPRINT_MISMATCH:
                result = await asyncio.to_thread(
                    rerun_in_parent, "service.fingerprint_fallbacks",
                    self.pool.pruner(key), options, source, out_path, spec,
                )
                return result, None
            raise WorkerFailure(error[0], error[1])
        raise AssertionError("unreachable")  # pragma: no cover

    async def _respawn(self, generation: int) -> None:
        assert self._respawn_lock is not None
        async with self._respawn_lock:
            if await asyncio.to_thread(self.pool.respawn, generation):
                obs.count("service.respawns")


def _stats_wire(stats: Any) -> dict[str, Any]:
    if isinstance(stats, ExtractStats):
        return extract_stats_to_wire(stats)
    return stats_to_wire(stats)


def _result_wire(result: "PruneResult | ExtractResult", **head: Any) -> dict[str, Any]:
    """A result's wire payload: ``head`` first, then the collected text
    or the output path, whichever the run produced."""
    if result.text is not None:
        head["text"] = result.text
    if result.output_path is not None:
        head["output_path"] = result.output_path
    return head


def _failure_wire(exc: WorkerFailure) -> dict[str, Any]:
    return {
        "type": exc.kind,
        "code": 500 if exc.kind == WORKER_CRASH else 422,
        "message": str(exc),
    }


# -- in-process serving (tests, notebooks, docs) -----------------------------


class BackgroundServer:
    """Runs a :class:`ProjectionServer` on a daemon thread with its own
    event loop.  Use as a context manager; ``server.port`` is bound once
    ``__enter__`` returns, and exit drains gracefully."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        cache: ProjectorCache | None = None,
    ) -> None:
        # Constructing here (caller's thread) forks the resident pool
        # before any helper thread exists.
        self.server = ProjectionServer(config, cache=cache)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("background server did not start within 30s")
        if self._error is not None:
            raise ServiceError(f"background server failed to start: {self._error}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_drained()

    def stop(self) -> None:
        """Drain and join (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise ServiceError("background server did not drain within 30s")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_background(
    config: ServiceConfig | None = None,
    cache: ProjectorCache | None = None,
) -> BackgroundServer:
    """A started-on-entry background server::

        with serve_background(ServiceConfig(port=0, jobs=2)) as server:
            client = ServiceClient("127.0.0.1", server.port)
    """
    return BackgroundServer(config, cache=cache)
