"""service-mixed: a real ``python -m repro serve --jobs 2 --ledger ...``
process answering a seeded request mix.

The documents are small (XMark factor 0.002, ~140 KB), so analysis, the
projector cache, the ledger, framing and queueing carry the cost instead
of the scan.  The mix, drawn from ``--seed``:

* 55 % ``prune`` with one parameterised XPathMark query (QP17, QP19,
  QP20, QP22, QP24, QP32) whose literal takes one of 10^4 values: the
  projector cache keys on the query text, so each one misses;
* 20 % ``prune`` with a fixed query from QP01-QP16, which the set-up's
  warm-up round put in the cache;
* 10 % ``extract`` with the person id/name/city spec;
* 15 % exact repeats of an earlier request, which the ledger serves.

Requests come in blocks of 20 holding exactly those counts, half of them
inline and half by path, in a seeded order.  The ledger keys on the
(document, projector) pair, so each kind walks its own seeded cycle of
pairs and no pair comes back before its cycle is used up: until then the
repeats are the only ledger hits, whatever the seed.

The load generator is one thread with two non-blocking sockets, one
connection each.  It drives the server in an open loop: it sends on a
fixed schedule whatever the server does, alternating connections, and
times each request from when it was due, so a stall is charged to every
request queued behind it.  A connection never has more than 8 requests
in flight (the server's per-connection cap); later requests wait in the
generator, still on the clock.

An untraced run (:meth:`ServiceWorkload.measure`) starts three fresh
servers one after another, on both CPUs.  Each is timed from launch to
the end of its sequential warm-up round (every fixed query, one query per
parameterised template and one extraction, on a document outside the
pool), then sent a seeded stream of its own at 24 req/s for a third of
``--seconds``.  The set-ups and the requests run in the server's
processes, so their slowdown is sampled on both CPUs while they run, and
each request is calibrated by the rounds of its own interval (see
``calibration.py``).  ``setup_s`` is the median of the three set-up
times, ``latency_p50_ms`` the median request (from due to answer),
``mb_per_s`` the answered documents' megabytes over the requests' summed
time, and ``peak_rss_mb`` the largest server ``VmHWM``.

A traced run's service probe (:meth:`ServiceWorkload.layer_metrics`)
drives one server up rungs of 12, 24, 36 and 48 req/s (2, 4, 2 and 2 s),
each draining before the next, uncalibrated; the 24 req/s rung gives
``service.open_p50_ms`` and ``service.open_tail_ms``.  The highest rung,
counting from the bottom, whose tail stays within 100 ms with nothing
failed and no growing generator lag is ``service.max_rate_ok``; the
server's ``stats`` op gives its own latency, queue, cache and ledger
numbers.

Every response is checked against the in-process facade result for the
same document and projector.
"""

from __future__ import annotations

import collections
import contextlib
import os
import random
import re
import selectors
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import benchstats
from benchenv import (
    MB, ROOT, Checker, checkout_env, generate_documents, operation_metrics,
    peak_rss_mb, person_spec, sha256_text,
)
from calibration import ELASTICITY, Calibration, Timings
from layer_probes import LITERALS, PARAM_TEMPLATES, LayerInputs, references

POOL_DOCUMENTS = 20
#: The per-layer probes run on the first documents of the pool only, to
#: keep a traced run short.
PROBE_DOCUMENTS = 10
POOL_FACTOR = 0.002
SMOKE_POOL_DOCUMENTS = 4
SMOKE_POOL_FACTOR = 0.001
JOBS = 2
SERVERS = 3
#: The server's default per-connection in-flight cap.
PER_CONNECTION = 8
#: The probe's rungs: (rate in req/s, seconds spent on it), ascending; a
#: quarter of the time under --smoke.  The 24 req/s rung gives the open
#: loop's latency (:data:`BASE_RATE`); 96 requests put 10 beyond its p89.
PROBE_RUNGS = ((12, 2.0), (24, 4.0), (36, 2.0), (48, 2.0))
BASE_RATE = 24
LATENCY_LIMIT_S = 0.100
#: A rung's generator lag "grows" when its last third runs this much
#: later than its first third.
LAG_GROWTH_S = 0.010
#: One block of the request stream: how many requests of each kind.
BLOCK = (("param", 11), ("fixed", 4), ("extract", 2), ("repeat", 3))
#: Give up on answers this long after the last request of a rung.
DRAIN_TIMEOUT_S = 60.0

_HEADER = struct.Struct(">I")


def fixed_queries() -> list[str]:
    from repro.workloads.xpathmark import XPATHMARK_QUERIES

    return [XPATHMARK_QUERIES[f"QP{index:02d}"] for index in range(1, 17)]


@dataclass(frozen=True)
class Request:
    kind: str            # "prune" or "extract"
    document: int
    inline: bool
    query: str | None    # None for extract


@dataclass
class Sent:
    """One request on the wire: when it was due, handed to the socket and
    answered, and what the answer was."""

    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    digest: str = ""
    error: str = ""


class _PairCycle:
    """Seeded permutations of (document, query group) pairs, one after
    another: a pair recurs only once every other pair was drawn."""

    def __init__(self, rng: random.Random, documents: int,
                 groups: list[list[Any]]) -> None:
        self.rng = rng
        self.groups = groups
        self.pairs = [(document, group) for document in range(documents)
                      for group in range(len(groups))]
        self.order: list[tuple[int, int]] = []

    def draw(self) -> tuple[int, list[Any]]:
        if not self.order:
            self.order = list(self.pairs)
            self.rng.shuffle(self.order)
        document, group = self.order.pop()
        return document, self.groups[group]


class RequestMix:
    """The seeded request stream (see the module docstring).  Queries are
    grouped by the projector they compile to, since that (not the query
    text) is what the ledger keys on."""

    def __init__(self, seed: str, documents: int, param_groups: list[list[str]],
                 fixed_groups: list[list[str]]) -> None:
        self.rng = random.Random(seed)
        self.cycles = {
            "param": _PairCycle(self.rng, documents, param_groups),
            "fixed": _PairCycle(self.rng, documents, fixed_groups),
            "extract": _PairCycle(self.rng, documents, [[None]]),
        }
        #: Requests answered so far, the only ones a repeat may copy: a
        #: repeat of a request still in flight would race it to the ledger.
        self.history: list[Request] = []
        self._answered: set[Request] = set()
        self.block: list[tuple[str, bool]] = []

    def answered(self, request: Request) -> None:
        if request not in self._answered:
            self._answered.add(request)
            self.history.append(request)

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        rng = self.rng
        if not self.block:
            kinds = [kind for kind, count in BLOCK for _ in range(count)]
            inline = [index % 2 == 0 for index in range(len(kinds))]
            rng.shuffle(kinds)
            rng.shuffle(inline)
            self.block = list(zip(kinds, inline))
        kind, inline = self.block.pop()
        if kind == "repeat" and self.history:
            return rng.choice(self.history)
        if kind == "repeat":
            kind = "param"
        document, group = self.cycles[kind].draw()
        query = rng.choice(group)
        if kind == "param":
            query = query.format(n=rng.randrange(LITERALS))
        return Request("extract" if kind == "extract" else "prune",
                       document, inline, query)


class ServerProcess:
    """``python -m repro serve`` with a fresh ledger, started from the
    checkout; :meth:`stop` drains it with SIGTERM and waits."""

    def __init__(self, scratch: Path, label: str) -> None:
        self.log_path = scratch / f"server-{label}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", str(JOBS),
             "--ledger", str(scratch / f"ledger-{label}.jsonl")],
            stdout=self._log, stderr=subprocess.STDOUT, cwd=ROOT,
            env=checkout_env(),
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            banner = re.search(r"serving on \S+:(\d+)",
                               self.log_path.read_text(encoding="utf-8"))
            if banner:
                return int(banner.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError("server exited: "
                                   + self.log_path.read_text(encoding="utf-8"))
            time.sleep(0.002)
        raise RuntimeError("server did not announce its port within 60 s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outgoing = bytearray()
        self.incoming = bytearray()
        self.waiting: collections.deque[int] = collections.deque()
        self.in_flight: set[int] = set()


class LoadGenerator:
    """One thread driving two connections through explicit frame buffers."""

    def __init__(self, port: int, body: Callable[[Request], dict],
                 on_answer: Callable[[Request], None]) -> None:
        self.connections = [Connection(port), Connection(port)]
        self.selector = selectors.DefaultSelector()
        for slot, conn in enumerate(self.connections):
            self.selector.register(conn.sock, selectors.EVENT_READ, slot)
        self.body = body
        self.on_answer = on_answer
        self.frames: dict[int, bytes] = {}
        self.log: list[Sent] = []

    def close(self) -> None:
        self.selector.close()
        for conn in self.connections:
            conn.sock.close()

    # -- frame plumbing --------------------------------------------------

    def _enqueue(self, request: Request, due: float, slot: int) -> None:
        from repro.service.protocol import encode_frame

        request_id = len(self.log)
        self.log.append(Sent(request, due))
        self.frames[request_id] = encode_frame(
            {"id": request_id, **self.body(request)}
        )
        self.connections[slot].waiting.append(request_id)

    def _release(self) -> None:
        now = time.perf_counter()
        for conn in self.connections:
            while conn.waiting and len(conn.in_flight) < PER_CONNECTION:
                request_id = conn.waiting.popleft()
                conn.outgoing += self.frames.pop(request_id)
                conn.in_flight.add(request_id)
                self.log[request_id].sent = now

    def _pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for socket progress."""
        for slot, conn in enumerate(self.connections):
            events = selectors.EVENT_READ
            if conn.outgoing:
                events |= selectors.EVENT_WRITE
            self.selector.modify(conn.sock, events, slot)
        for key, events in self.selector.select(max(0.0, timeout)):
            conn = self.connections[key.data]
            if events & selectors.EVENT_WRITE:
                del conn.outgoing[:conn.sock.send(conn.outgoing)]
            if events & selectors.EVENT_READ:
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.incoming += chunk
                self._answers(conn)

    def _answers(self, conn: Connection) -> None:
        from repro.service.protocol import decode_frame

        now = time.perf_counter()
        while len(conn.incoming) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(conn.incoming)
            end = _HEADER.size + length
            if len(conn.incoming) < end:
                break
            response = decode_frame(bytes(conn.incoming[_HEADER.size:end]))
            del conn.incoming[:end]
            record = self.log[response["id"]]
            conn.in_flight.discard(response["id"])
            record.done = now
            if response.get("ok"):
                record.ok = True
                record.digest = sha256_text(response["result"].get("text") or "")
                self.on_answer(record.request)
            else:
                error = response.get("error") or {}
                record.error = f"{error.get('type')}: {error.get('message')}"

    def _drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(conn.waiting or conn.in_flight for conn in self.connections):
            if time.perf_counter() > deadline:
                for conn in self.connections:
                    for request_id in [*conn.waiting, *conn.in_flight]:
                        self.log[request_id].error = "no answer before the deadline"
                    conn.waiting.clear()
                    conn.in_flight.clear()
                return
            self._release()
            self._pump(0.05)

    # -- phases ----------------------------------------------------------

    def round_trip(self, request: Request) -> None:
        """Send one request and wait for its answer."""
        self._enqueue(request, time.perf_counter(), 0)
        self._release()
        self._drain()

    def open_loop(self, rate: float, duration: float,
                  mix: Iterator[Request]) -> list[Sent]:
        """``rate`` requests per second for ``duration`` seconds on a fixed
        schedule, alternating connections; then wait for every answer."""
        first = len(self.log)
        start = time.perf_counter()
        for index in range(max(2, round(rate * duration))):
            due = start + index / rate
            while (wait := due - time.perf_counter()) > 0:
                self._release()
                self._pump(wait)
            self._enqueue(next(mix), due, index % 2)
            self._release()
        self._drain()
        return self.log[first:]

    def stats(self) -> dict[str, Any]:
        """The server's ``stats`` op, on the first connection."""
        from repro.service.protocol import decode_frame, encode_frame

        conn = self.connections[0]
        conn.sock.setblocking(True)
        conn.sock.sendall(encode_frame({"id": -1, "op": "stats"}))
        while True:
            if len(conn.incoming) >= _HEADER.size:
                (length,) = _HEADER.unpack_from(conn.incoming)
                end = _HEADER.size + length
                if len(conn.incoming) >= end:
                    return decode_frame(bytes(conn.incoming[_HEADER.size:end]))["result"]
            chunk = conn.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            conn.incoming += chunk


class ServiceWorkload:
    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        import repro
        from repro.core.cache import ProjectorCache
        from repro.workloads.xmark import xmark_grammar

        self.seed, self.smoke, self.scratch = seed, smoke, scratch
        self.grammar = xmark_grammar()
        count = SMOKE_POOL_DOCUMENTS if smoke else POOL_DOCUMENTS
        # The pool plus, last, the warm-up round's own document.
        self.documents = generate_documents(
            scratch, count + 1, SMOKE_POOL_FACTOR if smoke else POOL_FACTOR, seed)
        self.pool = count
        self.sizes = [os.path.getsize(path) for path in self.documents]
        self.markup = [Path(path).read_text(encoding="utf-8")
                       for path in self.documents]
        self.spec = person_spec()
        self.cache = ProjectorCache()
        self._bodies: dict[Request, dict] = {}
        self._expected: dict[tuple, str] = {}
        # The layer probes' projector: the union of the cached fixed queries.
        self.projector = self.cache.analyze(self.grammar, fixed_queries()).projector

    def _by_projector(self, queries: list[str], example: Callable[[str], str]
                      ) -> list[list[str]]:
        groups: dict[frozenset[str], list[str]] = {}
        for query in queries:
            projector = self.cache.analyze(self.grammar, [example(query)]).projector
            groups.setdefault(projector, []).append(query)
        return list(groups.values())

    def mix(self, part: int) -> RequestMix:
        """Stream number ``part`` of this seed."""
        templates = [PARAM_TEMPLATES[key] for key in sorted(PARAM_TEMPLATES)]
        return RequestMix(
            f"{self.seed}/{part}", self.pool,
            self._by_projector(templates, lambda template: template.format(n=0)),
            self._by_projector(fixed_queries(), lambda query: query),
        )

    def warm_up(self) -> list[Request]:
        rng = random.Random(self.seed)
        queries = fixed_queries() + [
            PARAM_TEMPLATES[key].format(n=rng.randrange(LITERALS))
            for key in sorted(PARAM_TEMPLATES)
        ]
        requests = [Request("prune", self.pool, False, query) for query in queries]
        return requests + [Request("extract", self.pool, False, None)]

    # -- requests and their references --------------------------------

    def body(self, request: Request) -> dict:
        body = self._bodies.get(request)
        if body is None:
            source: Any = (self.markup[request.document] if request.inline
                           else {"path": self.documents[request.document]})
            body = {"op": request.kind, "grammar": {"xmark": True}, "source": source}
            if request.kind == "extract":
                body["spec"] = self.spec.to_wire()
            else:
                body["queries"] = [request.query]
            self._bodies[request] = body
        return body

    def expected(self, request: Request) -> str:
        """Digest of the in-process facade result for the request's
        document and projector."""
        import repro

        path = self.documents[request.document]
        if request.kind == "extract":
            key: tuple = ("extract", request.document)
        else:
            projector = self.cache.analyze(self.grammar, [request.query]).projector
            key = (projector, request.document)
        digest = self._expected.get(key)
        if digest is None:
            if request.kind == "extract":
                text = repro.extract(path, self.grammar, self.spec).text
            else:
                text = repro.prune(path, self.grammar, key[0]).text
            digest = self._expected[key] = sha256_text(text)
        return digest

    # -- the run ---------------------------------------------------------

    @contextlib.contextmanager
    def session(self, label: str, mix: RequestMix
                ) -> Iterator[tuple[ServerProcess, LoadGenerator]]:
        """A fresh server and a load generator on it, past the warm-up
        round; both are stopped when the block ends."""
        server = ServerProcess(self.scratch, label)
        try:
            generator = LoadGenerator(server.port, self.body, mix.answered)
            try:
                # One at a time: concurrent requests whose outputs are
                # identical race in the ledger's result store.
                for request in self.warm_up():
                    generator.round_trip(request)
                yield server, generator
            finally:
                generator.close()
        finally:
            server.stop()

    def measure(self, seconds: float, checker: Checker) -> tuple[dict, dict]:
        calibration = Calibration()
        servers = 1 if self.smoke else SERVERS
        elasticity = ELASTICITY["service-mixed"]
        setup = Timings(calibration, elasticity["setup"], sampled=True)
        requests = Timings(calibration, elasticity["operation"], sampled=True)
        megabytes: list[float] = []
        rss: list[float] = []
        for index in range(servers):
            mix = self.mix(index)
            with contextlib.ExitStack() as stack:
                server, generator = setup.call(
                    stack.enter_context, self.session(str(index), mix))
                answered = [record for record in requests.call(
                    generator.open_loop, BASE_RATE, seconds / servers, mix,
                    reported=lambda sent: [(record.due, record.done)
                                           for record in sent if record.ok],
                ) if record.ok]
                megabytes.extend(self.sizes[record.request.document] / MB
                                 for record in answered)
                rss.append(peak_rss_mb(server.proc.pid))
                log = generator.log
            for record in log:
                self._check(record, checker)
        return operation_metrics(megabytes, requests, setup, max(rss))

    def layer_metrics(self, checker: Checker) -> tuple[dict[str, float], dict]:
        """The service probe of a traced run (see the module docstring):
        per-layer metrics, and the ladder as detail."""
        mix = self.mix(0)
        scale = 0.25 if self.smoke else 1.0
        with self.session("probe", mix) as (_, generator):
            rungs = {rate: generator.open_loop(rate, scale * seconds, mix)
                     for rate, seconds in PROBE_RUNGS}
            stats = generator.stats()
            log = generator.log
        for record in log:
            self._check(record, checker)

        ladder = {rate: _rung_summary(records) for rate, records in rungs.items()}
        max_rate_ok = 0
        for rate, rung in ladder.items():
            if not rung["ok"]:
                break
            max_rate_ok = rate
        server_latency = stats["latency"]
        cache, ledger = stats["cache"], stats["ledger"]
        lookups = ledger["hits"] + ledger["records"]
        client = benchstats.median([r.done - r.sent for r in log if r.ok])
        base = ladder[BASE_RATE]
        late = benchstats.tail([r.sent - r.due for r in rungs[BASE_RATE]])
        metrics = {
            "service.open_p50_ms": base["p50_ms"],
            "service.open_tail_ms": base["tail_ms"] or base["max_ms"],
            "service.max_rate_ok": max_rate_ok,
            "service.server_p50_ms": 1000.0 * server_latency["p50"],
            "service.server_p95_ms": 1000.0 * server_latency["p95"],
            "service.wire_ms_p50": 1000.0 * (client - server_latency["p50"]),
            "service.queue_high_water": stats["queue"]["high_water"],
            "service.refusals": stats["refusals"],
            "workers.respawns": stats["pool"]["respawns"],
            "cache.hit_ratio": cache["hit_rate"],
            "cache.misses": cache["misses"],
            "ledger.hit_ratio": ledger["hits"] / lookups if lookups else 0.0,
            "loadgen.late_tail_ms": 1000.0 * late["value"] if late else 0.0,
        }
        return metrics, {"ladder": {str(rate): rung for rate, rung in ladder.items()}}

    def _check(self, record: Sent, checker: Checker) -> None:
        request = record.request
        label = (f"{request.kind} of document {request.document} "
                 f"({'inline' if request.inline else 'path'}"
                 f"{', ' + request.query if request.query else ''})")
        if not record.ok:
            checker.fail_one(f"{label} failed: {record.error}")
        else:
            checker.check(record.digest == self.expected(request),
                          f"{label} differs from the facade result")

    def layer_inputs(self) -> LayerInputs:
        import repro

        documents = self.documents[:PROBE_DOCUMENTS]
        refs = references(self.grammar, documents, self.projector, self.scratch)
        out = str(self.scratch / "operation.xml")

        def operation() -> None:
            for path in documents:
                repro.prune(path, self.grammar, self.projector, out=out)

        return LayerInputs(
            grammar=self.grammar, documents=documents,
            projector=self.projector, queries=fixed_queries(), spec=None,
            operation=operation, seed=self.seed, references=refs,
        )


def _rung_summary(records: list[Sent]) -> dict:
    """Latency (from due), generator lateness and the rung's verdict:
    its tail within the latency limit, nothing failed, and the generator's
    lag not growing from the first third of the rung to the last."""
    latencies = [r.done - r.due for r in records if r.ok]
    late = [r.sent - r.due for r in records]
    third = max(1, len(late) // 3)
    tail = benchstats.tail(latencies)
    worst = tail["value"] if tail else max(latencies, default=float("inf"))
    growing = (benchstats.median(late[-third:])
               > benchstats.median(late[:third]) + LAG_GROWTH_S)
    failed = sum(1 for r in records if not r.ok)
    late_tail = benchstats.tail(late)
    return {
        "requests": len(records),
        "failed": failed,
        "p50_ms": 1000.0 * benchstats.median(latencies) if latencies else None,
        "tail_ms": 1000.0 * tail["value"] if tail else None,
        "max_ms": 1000.0 * max(latencies) if latencies else None,
        "tail_percentile": tail["percentile"] if tail else None,
        "late_p50_ms": 1000.0 * benchstats.median(late),
        "late_tail_ms": 1000.0 * late_tail["value"] if late_tail else None,
        "lag_growing": growing,
        "ok": failed == 0 and not growing and worst <= LATENCY_LIMIT_S,
    }
