"""Projection-service tests: protocol framing, request semantics, admission
control, lifecycle (drain / SIGTERM), crash respawn, and the byte-identity
soak.

The server under test usually runs in-process on a daemon thread
(:func:`repro.service.serve_background`) so internals — the resident pool,
the drain flag — stay reachable for deterministic injection; the SIGTERM
test boots the real ``repro-xml serve`` subprocess, because signal-driven
drain is exactly the part a thread cannot emulate.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.cache import ProjectorCache, resolve_projector
from repro.errors import (
    ProtocolError,
    RemoteError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.limits import Limits
from repro.service import ServiceClient, ServiceConfig, serve_background
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
    stats_from_wire,
    stats_to_wire,
)
from tests.conftest import BOOK_DTD, BOOK_XML

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
QUERY = "//title"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _expected_text(grammar, markup: str, queries=(QUERY,)) -> str:
    """What the serial in-process facade produces for ``markup``."""
    projector = resolve_projector(grammar, list(queries))
    text = repro.prune(markup, grammar, projector).text
    assert text is not None
    return text


@pytest.fixture(scope="module")
def server():
    """One warm in-process server shared by the plain request tests."""
    with serve_background(
        ServiceConfig(port=0, jobs=2), cache=ProjectorCache()
    ) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as connection:
        yield connection


# -- protocol framing ---------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"id": 7, "op": "health", "nested": {"a": [1, 2]}}
        frame = encode_frame(payload)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == payload

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfenot json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]")

    def test_stats_roundtrip(self, book_grammar):
        projector = resolve_projector(book_grammar, [QUERY])
        stats = repro.prune(BOOK_XML, book_grammar, projector).stats
        assert stats_from_wire(stats_to_wire(stats)) == stats

    def test_garbage_frame_answered_then_connection_dropped(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(struct.pack(">I", 9) + b"not json!")
            response = recv_frame(sock)
            assert response is not None
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert response["error"]["code"] == 400
            # The stream position is unrecoverable: the server hangs up.
            assert recv_frame(sock) is None

    def test_oversized_frame_refused(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(struct.pack(">I", (256 << 20) + 1))
            response = recv_frame(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"

    def test_unknown_op_is_structured_and_connection_survives(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            send_frame(sock, {"id": 1, "op": "explode"})
            response = recv_frame(sock)
            assert response == {
                "id": 1, "ok": False,
                "error": {"type": "ProtocolError", "code": 400,
                          "message": "unknown operation 'explode'"},
            }
            send_frame(sock, {"id": 2, "op": "health"})
            response = recv_frame(sock)
            assert response is not None and response["ok"] is True

    def test_missing_id_refused(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            send_frame(sock, {"op": "health"})
            response = recv_frame(sock)
            assert response is not None
            assert response["id"] is None and response["ok"] is False

    def test_from_address_validation(self):
        with pytest.raises(ValueError):
            ServiceClient.from_address("no-port-here")


# -- request semantics --------------------------------------------------------


class TestRequests:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "serving"
        assert health["pid"] == os.getpid()

    def test_prune_markup_matches_serial_facade(self, client, book_grammar):
        outcome = client.prune(
            BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY]
        )
        assert outcome.text == _expected_text(book_grammar, BOOK_XML)
        assert outcome.stats.bytes_in == len(BOOK_XML.encode("utf-8"))
        assert outcome.worker is not None and outcome.worker != os.getpid()

    def test_prune_local_path_is_read_client_side(self, client, book_grammar,
                                                  tmp_path):
        path = tmp_path / "bib.xml"
        path.write_text(BOOK_XML)
        outcome = client.prune(str(path), dtd=BOOK_DTD, root="bib",
                               queries=[QUERY])
        assert outcome.text == _expected_text(book_grammar, BOOK_XML)

    def test_prune_server_side_path_and_out_path(self, client, book_grammar,
                                                 tmp_path):
        src = tmp_path / "bib.xml"
        src.write_text(BOOK_XML)
        out = tmp_path / "pruned.xml"
        outcome = client.prune(
            source_path=str(src), out_path=str(out),
            dtd=BOOK_DTD, root="bib", queries=[QUERY],
        )
        assert outcome.text is None
        assert outcome.output_path == str(out)
        assert out.read_text() == _expected_text(book_grammar, BOOK_XML)

    def test_prune_with_explicit_projector(self, client, book_grammar):
        projector = resolve_projector(book_grammar, [QUERY])
        outcome = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                               projector=projector)
        assert outcome.text == _expected_text(book_grammar, BOOK_XML)

    def test_prune_xmark_builtin(self, client, xmark):
        grammar, _, _ = xmark
        from repro.workloads.xmark import generate_document
        from repro.xmltree.serializer import serialize

        markup = serialize(generate_document(0.001, seed=3))
        query = "//person/name"
        outcome = client.prune(markup, xmark=True, queries=[query])
        assert outcome.text == _expected_text(grammar, markup, [query])

    def test_analyze_matches_local_analysis(self, client, book_grammar):
        remote = client.analyze([QUERY], dtd=BOOK_DTD, root="bib")
        local = repro.analyze(book_grammar, [QUERY])
        assert remote["projector"] == sorted(local.projector)
        assert remote["per_query_sizes"] == [len(p) for p in local.per_query]

    def test_batch_ordering_and_per_item_errors(self, client, book_grammar):
        good, bad = BOOK_XML, "<bib><book><title>unclosed</bib>"
        batch = client.prune_batch(
            [good, bad, good], dtd=BOOK_DTD, root="bib", queries=[QUERY]
        )
        assert batch.succeeded == 2
        expected = _expected_text(book_grammar, good)
        assert batch.items[0].text == expected
        assert isinstance(batch.items[1], ServiceError)
        assert batch.items[2].text == expected
        # Merged stats only count the items that pruned.
        assert batch.stats.bytes_in == 2 * len(good.encode("utf-8"))

    def test_batch_out_dir_writes_server_side(self, client, tmp_path,
                                              book_grammar):
        sources = []
        for i in range(3):
            path = tmp_path / f"doc{i}.xml"
            path.write_text(BOOK_XML)
            sources.append(str(path))
        out_dir = tmp_path / "pruned"
        batch = client.prune_batch(
            source_paths=sources, out_dir=str(out_dir),
            dtd=BOOK_DTD, root="bib", queries=[QUERY],
        )
        assert batch.succeeded == 3
        expected = _expected_text(book_grammar, BOOK_XML)
        for i in range(3):
            assert (out_dir / f"doc{i}.xml").read_text() == expected

    def test_extract_matches_local_facade(self, client, book_grammar):
        from repro import ExtractSpec, extract

        spec = ExtractSpec(
            rows="/bib/book",
            fields={"title": "title/text()", "isbn": "@isbn"},
        )
        outcome = client.extract(BOOK_XML, spec=spec,
                                 dtd=BOOK_DTD, root="bib")
        local = extract(BOOK_XML, book_grammar, spec)
        assert outcome.text == local.text
        assert outcome.stats.as_dict() == local.stats.as_dict()
        assert outcome.stats.rows_out == 3

    def test_extract_out_path_writes_server_side(self, client, tmp_path,
                                                 book_grammar):
        from repro import ExtractSpec, extract

        spec = ExtractSpec(rows="/bib/book", fields={"t": "title/text()"})
        source = tmp_path / "bib.xml"
        source.write_text(BOOK_XML)
        target = tmp_path / "books.csv"
        outcome = client.extract(
            source_path=str(source), spec=spec, dtd=BOOK_DTD, root="bib",
            options=repro.ExtractOptions(format="csv"),
            out_path=str(target),
        )
        assert outcome.output_path == str(target)
        assert outcome.text is None
        local = extract(str(source), book_grammar, spec, format="csv",
                        out=str(tmp_path / "local.csv"))
        assert target.read_text() == (tmp_path / "local.csv").read_text()

    def test_extract_bad_spec_is_a_protocol_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            send_frame(sock, {
                "id": 1, "op": "extract", "source": BOOK_XML,
                "grammar": {"dtd": BOOK_DTD, "root": "bib"},
                "spec": {"rows": "/bib/book",
                         "fields": [["t", "title/text()"]], "bogus": 1},
            })
            response = recv_frame(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "bogus" in response["error"]["message"]

    def test_extract_spec_refusal_is_structured(self, client):
        from repro import ExtractSpec

        spec = ExtractSpec(rows="/bib/book", fields={"t": "title/text()"})
        with pytest.raises(RemoteError) as excinfo:
            client.extract("<bib><book></bib>", spec=spec,
                           dtd=BOOK_DTD, root="bib")
        assert excinfo.value.code == 422

    def test_grammar_and_projector_are_resident(self, client):
        before = client.stats()
        client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY])
        client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY])
        after = client.stats()
        # Same DTD text hashes to the same resident grammar...
        assert after["grammars"] == before["grammars"]
        # ...and the repeated workload hits the shared projector cache.
        assert after["cache"]["hits"] >= before["cache"]["hits"] + 2
        assert after["pool"]["pinned"] >= 1

    def test_client_limits_are_enforced_server_side(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY],
                         limits=Limits(max_depth=1))
        assert excinfo.value.remote_type == "LimitExceeded"
        assert excinfo.value.code == 422

    def test_bad_options_rejected_as_protocol_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            send_frame(sock, {
                "id": 1, "op": "prune", "source": BOOK_XML,
                "grammar": {"dtd": BOOK_DTD, "root": "bib"},
                "queries": [QUERY], "options": {"warp_speed": True},
            })
            response = recv_frame(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "warp_speed" in response["error"]["message"]

    @pytest.mark.parametrize("op", ["prune", "extract"])
    def test_removed_fallback_option_is_a_protocol_error(self, server, op):
        """2.0.0 removed ``fallback``: a 1.x client that sends it gets a
        400 naming the option, not a silently different run."""
        frame = {
            "id": 1, "op": op, "source": BOOK_XML,
            "grammar": {"dtd": BOOK_DTD, "root": "bib"},
            "options": {"fallback": False},
        }
        if op == "prune":
            frame["queries"] = [QUERY]
        else:
            frame["spec"] = {"rows": "/bib/book", "fields": {"t": "title/text()"}}
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            send_frame(sock, frame)
            response = recv_frame(sock)
        assert response is not None and response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert response["error"]["code"] == 400
        assert "fallback" in response["error"]["message"]


def test_client_cannot_relax_the_server_limits_profile():
    """The effective bounds are the intersection: a client asking for a
    looser profile than the server's still hits the server's bound."""
    config = ServiceConfig(port=0, jobs=1, limits=Limits(max_depth=1))
    with serve_background(config, cache=ProjectorCache()) as background:
        with ServiceClient("127.0.0.1", background.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                             queries=[QUERY], limits="off")
            assert excinfo.value.remote_type == "LimitExceeded"


# -- update independence: retained vs invalidated pins ------------------------


class TestCheckUpdate:
    def test_independent_update_retains_pins(self, book_grammar):
        """A proven-independent update must *retain* the resident worker
        payloads — no unpin, no respawn — while a possibly-dependent one
        invalidates them so the next request re-establishes the state."""
        config = ServiceConfig(port=0, jobs=1)
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                             queries=[QUERY])
                stats = client.stats()
                assert stats["pool"]["pinned"] == 1
                respawns = stats["pool"]["respawns"]

                verdict = client.check_update(
                    "/bib/book/price", dtd=BOOK_DTD, root="bib",
                    queries=[QUERY],
                )
                assert verdict["independent"] is True
                assert verdict["retained"] == 1
                assert verdict["invalidated"] == 0
                assert not verdict["overlap"]
                stats = client.stats()
                assert stats["pool"]["pinned"] == 1  # retained, not dropped
                assert stats["pool"]["respawns"] == respawns
                assert stats["static"] == {
                    "checks": 1, "retained": 1, "invalidated": 0,
                }

                # The retained pin still serves work.
                outcome = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                       queries=[QUERY])
                assert outcome.text == _expected_text(book_grammar, BOOK_XML)

    def test_dependent_update_invalidates_pins(self, book_grammar):
        config = ServiceConfig(port=0, jobs=1)
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                             queries=[QUERY])
                assert client.stats()["pool"]["pinned"] == 1

                verdict = client.check_update(
                    "/bib/book/title", dtd=BOOK_DTD, root="bib",
                    queries=[QUERY],
                )
                assert verdict["independent"] is False
                assert "title" in verdict["overlap"]
                assert verdict["invalidated"] == 1
                stats = client.stats()
                assert stats["pool"]["pinned"] == 0
                assert stats["static"]["invalidated"] == 1

                # The next request re-pins and still answers correctly.
                outcome = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                       queries=[QUERY])
                assert outcome.text == _expected_text(book_grammar, BOOK_XML)
                assert client.stats()["pool"]["pinned"] == 1

    def test_check_update_requires_update_paths(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            send_frame(sock, {
                "id": 1, "op": "check_update",
                "grammar": {"dtd": BOOK_DTD, "root": "bib"},
                "queries": [QUERY],
            })
            response = recv_frame(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "update_paths" in response["error"]["message"]


# -- admission control --------------------------------------------------------


class _HeldPool:
    """Replaces ``ResidentPool.submit`` with futures the test resolves."""

    def __init__(self, server) -> None:
        self.server = server
        self.futures: list[concurrent.futures.Future] = []
        self._real_submit = server.pool.submit
        server.pool.submit = self._submit  # type: ignore[method-assign]

    def _submit(self, key, source, out_path, options, spec=None):
        future: concurrent.futures.Future = concurrent.futures.Future()
        self.futures.append(future)
        return future

    def wait_for(self, count: int, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.futures) < count:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"only {len(self.futures)}/{count} requests reached the pool"
                )
            time.sleep(0.005)

    def release_all(self, book_grammar) -> None:
        projector = resolve_projector(book_grammar, [QUERY])
        result = repro.prune(BOOK_XML, book_grammar, projector)
        for future in self.futures:
            future.set_result((None, result, [], {}, 0))


def _prune_frame(req_id: int) -> dict:
    return {
        "id": req_id, "op": "prune", "source": BOOK_XML,
        "grammar": {"dtd": BOOK_DTD, "root": "bib"}, "queries": [QUERY],
    }


class TestAdmission:
    def test_queue_full_is_a_structured_refusal_not_a_hang(self, book_grammar):
        config = ServiceConfig(port=0, jobs=1, queue_limit=0)
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                started = time.monotonic()
                with pytest.raises(ServiceOverloaded) as excinfo:
                    client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                 queries=[QUERY])
                assert time.monotonic() - started < 5.0
                assert excinfo.value.scope == "server"
                assert excinfo.value.code == 429
                # health and stats stay observable while the queue refuses.
                assert client.health()["status"] == "serving"
                stats = client.stats()
                assert stats["refusals"] == 1
                # Refusals are attributed to the admission scope that
                # tripped, so a scale sweep can tell queue pressure from
                # per-connection caps.
                assert stats["refusals_by_scope"] == {"server": 1}

    def test_stats_expose_latency_histogram_and_queue_depth(self, book_grammar):
        config = ServiceConfig(port=0, jobs=1, queue_limit=8)
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                baseline = client.stats()
                assert baseline["latency"] == {"count": 0}
                assert baseline["queue"] == {
                    "depth": 0, "high_water": 0, "limit": 8,
                }
                assert baseline["refusals_by_scope"] == {}

                for _ in range(3):
                    client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                 queries=[QUERY])
                stats = client.stats()
                latency = stats["latency"]
                assert latency["count"] == 3
                assert 0 < latency["min"] <= latency["p50"]
                assert latency["p50"] <= latency["p95"] <= latency["p99"]
                assert latency["p99"] <= latency["max"]
                assert stats["queue"]["depth"] == 0  # nothing in flight now
                assert 1 <= stats["queue"]["high_water"] <= 8

    def test_per_connection_cap_refuses_the_pipelined_request(self, book_grammar):
        config = ServiceConfig(port=0, jobs=1, per_connection=1, queue_limit=64)
        with serve_background(config, cache=ProjectorCache()) as background:
            held = _HeldPool(background.server)
            with socket.create_connection(
                ("127.0.0.1", background.port), timeout=10
            ) as sock:
                send_frame(sock, _prune_frame(1))
                held.wait_for(1)
                send_frame(sock, _prune_frame(2))
                refusal = recv_frame(sock)
                assert refusal is not None
                assert refusal["id"] == 2 and refusal["ok"] is False
                assert refusal["error"]["code"] == 429
                assert refusal["error"]["scope"] == "connection"
                held.release_all(book_grammar)
                response = recv_frame(sock)
                assert response is not None
                assert response["id"] == 1 and response["ok"] is True
                assert response["result"]["text"] == _expected_text(
                    book_grammar, BOOK_XML
                )

    def test_second_connection_unaffected_by_full_one(self, book_grammar):
        config = ServiceConfig(port=0, jobs=1, per_connection=1, queue_limit=64)
        with serve_background(config, cache=ProjectorCache()) as background:
            held = _HeldPool(background.server)
            with socket.create_connection(
                ("127.0.0.1", background.port), timeout=10
            ) as full:
                send_frame(full, _prune_frame(1))
                held.wait_for(1)
                # The cap is per connection: a second client still gets in.
                with socket.create_connection(
                    ("127.0.0.1", background.port), timeout=10
                ) as other:
                    send_frame(other, _prune_frame(7))
                    held.wait_for(2)
                    held.release_all(book_grammar)
                    response = recv_frame(other)
                    assert response is not None and response["ok"] is True
                recv_frame(full)


# -- lifecycle: drain with zero lost in-flight requests -----------------------


def test_drain_finishes_admitted_work_and_refuses_new(book_grammar):
    config = ServiceConfig(port=0, jobs=1)
    background = serve_background(config, cache=ProjectorCache()).start()
    try:
        held = _HeldPool(background.server)
        sock = socket.create_connection(("127.0.0.1", background.port), timeout=10)
        try:
            send_frame(sock, _prune_frame(1))
            held.wait_for(1)

            stopper = threading.Thread(target=background.stop)
            stopper.start()
            deadline = time.monotonic() + 10
            while not background.server._draining:
                assert time.monotonic() < deadline, "drain never started"
                time.sleep(0.005)

            # A frame arriving mid-drain gets a structured 503...
            send_frame(sock, _prune_frame(2))
            refusal = recv_frame(sock)
            assert refusal is not None
            assert refusal["id"] == 2 and refusal["ok"] is False
            assert refusal["error"]["type"] == "ServiceUnavailable"
            assert refusal["error"]["code"] == 503

            # ...while the admitted request is completed, not dropped.
            held.release_all(book_grammar)
            response = recv_frame(sock)
            assert response is not None
            assert response["id"] == 1 and response["ok"] is True
            assert response["result"]["text"] == _expected_text(
                book_grammar, BOOK_XML
            )
            stopper.join(timeout=30)
            assert not stopper.is_alive()
        finally:
            sock.close()
    finally:
        background.stop()


def _serve_subprocess(*args: str) -> subprocess.Popen:
    """A real ``repro-xml serve`` process on a free port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_sigterm_drains_the_subprocess_with_zero_lost_requests(book_grammar,
                                                               tmp_path):
    """The real ``repro-xml serve`` process: admit work, SIGTERM, and every
    admitted request must still be answered before a clean exit 0."""
    big_doc = (
        "<bib>"
        + '<book isbn="s1"><title>Siddhartha</title><author>Hesse</author>'
          "<year>1922</year><price>9</price></book>" * 2000
        + "</bib>"
    )
    proc = _serve_subprocess("--jobs", "2")
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on "), banner
        port = int(banner.rsplit(":", 1)[1])

        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        try:
            requests = 6
            for i in range(1, requests + 1):
                send_frame(sock, {
                    "id": i, "op": "prune", "source": big_doc,
                    "grammar": {"dtd": BOOK_DTD, "root": "bib"},
                    "queries": [QUERY],
                })
            # A health round trip proves the reader dispatched (admitted)
            # every prune frame before the signal lands.
            send_frame(sock, {"id": 99, "op": "health"})
            responses = {}
            while 99 not in responses:
                frame = recv_frame(sock)
                assert frame is not None
                responses[frame["id"]] = frame

            proc.send_signal(signal.SIGTERM)

            while len(responses) < requests + 1:
                frame = recv_frame(sock)
                assert frame is not None, "connection dropped with work admitted"
                responses[frame["id"]] = frame
        finally:
            sock.close()

        assert proc.wait(timeout=60) == 0
        expected = _expected_text(book_grammar, big_doc)
        for i in range(1, requests + 1):
            assert responses[i]["ok"] is True, responses[i]
            assert responses[i]["result"]["text"] == expected
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_sigterm_closes_an_idle_connection_and_exits():
    """An idle client does not hold the drain open: since 3.12.1 the
    listening server's ``wait_closed`` waits for every connection, so the
    server must close its connections before it waits."""
    proc = _serve_subprocess("--jobs", "1")
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on "), banner
        port = int(banner.rsplit(":", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            send_frame(sock, {"id": 1, "op": "health"})
            answer = recv_frame(sock)
            assert answer is not None and answer["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            assert recv_frame(sock) is None
        finally:
            sock.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


# -- crash respawn ------------------------------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="crash injection requires fork")
def test_crashed_worker_respawned_without_dropping_connections(
    tmp_path, monkeypatch, book_grammar
):
    """One hostile request kills its worker; the pool respawns, the request
    is retried, and a concurrent connection never notices (the PR 4
    fork-inheritance crash-injection pattern, pointed at the service)."""
    import repro.pool as pool

    flag = tmp_path / "crash-once"
    flag.write_text("")
    real = pool._execute_item

    def _crash_once(pruner, options, source, out_path, spec=None):
        try:
            os.unlink(flag)  # exactly one worker claims the crash
        except FileNotFoundError:
            return real(pruner, options, source, out_path, spec)
        os._exit(13)

    # Fork workers inherit the patched module (the pool spawns processes
    # lazily, on first submit — after this patch).
    monkeypatch.setattr(pool, "_execute_item", _crash_once)

    with serve_background(
        ServiceConfig(port=0, jobs=2), cache=ProjectorCache()
    ) as background:
        outcomes = [None, None]

        def request(slot: int) -> None:
            with ServiceClient("127.0.0.1", background.port, timeout=120) as c:
                outcomes[slot] = c.prune(
                    BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY]
                )

        threads = [
            threading.Thread(target=request, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "request hung after the crash"

        expected = _expected_text(book_grammar, BOOK_XML)
        assert [outcome.text for outcome in outcomes] == [expected, expected]

        with ServiceClient("127.0.0.1", background.port) as c:
            stats = c.stats()
            assert stats["pool"]["respawns"] >= 1
            assert c.health()["status"] == "serving"
            # The respawned pool serves fresh work normally.
            after = c.prune(BOOK_XML, dtd=BOOK_DTD, root="bib", queries=[QUERY])
            assert after.text == expected


def test_submit_racing_a_respawn_gets_a_fresh_pool(book_grammar):
    """The service respawns on a worker thread while the event loop keeps
    submitting.  A submit made while the killed pool is still being torn
    down must start a fresh pool, not feed the dead one (which would fail
    an innocent request and trigger a second respawn)."""
    from repro.api import PruneOptions
    from repro.service import ResidentPool

    projector = resolve_projector(book_grammar, [QUERY], cache=ProjectorCache())
    pool = ResidentPool(jobs=1)
    key = pool.pin(book_grammar, projector)
    try:
        error, first, *_ = pool.submit(key, BOOK_XML, None, PruneOptions()).result(60)
        assert error is None
        old = pool._executor
        entered, release = threading.Event(), threading.Event()
        real_shutdown = old.shutdown

        def slow_shutdown(*args, **kwargs):
            entered.set()
            release.wait(30)
            real_shutdown(*args, **kwargs)

        old.shutdown = slow_shutdown
        respawner = threading.Thread(target=pool.respawn, args=(pool.generation,))
        respawner.start()
        try:
            assert entered.wait(30)
            error, again, *_ = pool.submit(
                key, BOOK_XML, None, PruneOptions()
            ).result(60)
        finally:
            release.set()
            respawner.join(30)
        assert not respawner.is_alive()
        assert error is None
        assert again.text == first.text
        assert pool.respawns == 1
    finally:
        pool.shutdown()


# -- the soak: concurrent clients vs the serial facade ------------------------


def test_soak_concurrent_clients_are_byte_identical_to_the_facade(book_grammar):
    """50 concurrent clients x 20 requests each: every response must be
    byte-identical to the serial :func:`repro.prune` facade and, below the
    admission limit, nothing may be refused."""
    variants = [
        BOOK_XML,
        "<bib><book isbn=\"q1\"><title>Quixote</title><author>Cervantes"
        "</author><year>1605</year></book></bib>",
        "<bib><book><title>Ulysses</title><author>Joyce</author>"
        "<price>30</price></book></bib>",
    ]
    expected = [_expected_text(book_grammar, doc) for doc in variants]
    clients, per_client = 50, 20
    config = ServiceConfig(port=0, jobs=2, queue_limit=64, per_connection=8)
    failures: list[str] = []

    with serve_background(config, cache=ProjectorCache()) as background:

        def hammer(seed: int) -> None:
            try:
                with ServiceClient("127.0.0.1", background.port,
                                   timeout=120) as c:
                    for i in range(per_client):
                        pick = (seed + i) % len(variants)
                        outcome = c.prune(variants[pick], dtd=BOOK_DTD,
                                          root="bib", queries=[QUERY])
                        if outcome.text != expected[pick]:
                            failures.append(
                                f"client {seed} request {i}: output differs"
                            )
                            return
            except Exception as exc:  # refusals below the limit count too
                failures.append(f"client {seed}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "soak client hung"
        assert not failures, failures[:5]

        with ServiceClient("127.0.0.1", background.port) as c:
            stats = c.stats()
            assert stats["refusals"] == 0
            assert stats["requests_served"] >= clients * per_client
            # One grammar, one pinned pruner, and a hot projector cache:
            # the static phase ran once, not once per request.
            assert stats["grammars"] == 1
            assert stats["pool"]["pinned"] == 1
            assert stats["cache"]["misses"] == 1


# -- CLI delegation -----------------------------------------------------------


class TestCliServer:
    def test_prune_via_server_matches_local_cli(self, tmp_path, book_grammar,
                                                capsys):
        from repro.cli import main

        dtd = tmp_path / "bib.dtd"
        dtd.write_text(BOOK_DTD)
        doc = tmp_path / "bib.xml"
        doc.write_text(BOOK_XML)
        local_out = tmp_path / "local.xml"
        remote_out = tmp_path / "remote.xml"

        assert main(["prune", "--dtd", str(dtd), "--root", "bib",
                     "--query", QUERY, str(doc), str(local_out)]) == 0
        with serve_background(
            ServiceConfig(port=0, jobs=1), cache=ProjectorCache()
        ) as background:
            assert main(["prune", "--dtd", str(dtd), "--root", "bib",
                         "--query", QUERY, "--server",
                         f"127.0.0.1:{background.port}",
                         str(doc), str(remote_out)]) == 0
        assert remote_out.read_text() == local_out.read_text()
        assert "pruned via" in capsys.readouterr().out

    def test_batch_prune_via_server(self, tmp_path, book_grammar):
        from repro.cli import main

        dtd = tmp_path / "bib.dtd"
        dtd.write_text(BOOK_DTD)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(3):
            (corpus / f"doc{i}.xml").write_text(BOOK_XML)
        out_dir = tmp_path / "pruned"

        with serve_background(
            ServiceConfig(port=0, jobs=2), cache=ProjectorCache()
        ) as background:
            assert main(["prune", "--dtd", str(dtd), "--root", "bib",
                         "--query", QUERY, "--server",
                         f"127.0.0.1:{background.port}",
                         str(corpus), str(out_dir)]) == 0
        expected = _expected_text(book_grammar, BOOK_XML)
        for i in range(3):
            assert (out_dir / f"doc{i}.xml").read_text() == expected

    def test_server_requires_an_explicit_grammar(self, tmp_path):
        from repro.cli import main

        doc = tmp_path / "bib.xml"
        doc.write_text(BOOK_XML)
        with pytest.raises(SystemExit):
            main(["prune", "--infer-dtd", "--query", QUERY,
                  "--server", "127.0.0.1:1", str(doc), str(tmp_path / "o.xml")])


class TestServiceLedger:
    """The server-side attestation ledger: every request recorded, repeat
    requests served from the content-addressed store, and the resulting
    ledger replayable offline with no out-of-band grammar (the request's
    inline DTD rides along in provenance)."""

    def test_prune_recorded_then_served_byte_identically(self, tmp_path,
                                                         book_grammar):
        led = tmp_path / "ledger.jsonl"
        config = ServiceConfig(port=0, jobs=1, ledger=str(led))
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                first = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                     queries=[QUERY])
                second = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                      queries=[QUERY])
                assert first.ledger == "recorded"
                assert second.ledger == "hit"
                assert second.text == first.text == _expected_text(
                    book_grammar, BOOK_XML)
                assert second.stats == first.stats
                stats = client.stats()
                assert stats["ledger"] == {
                    "enabled": True, "entries": 1, "hits": 1, "records": 1,
                }

    def test_stats_report_ledger_disabled_without_the_flag(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.stats()["ledger"] == {
                "enabled": False, "entries": 0, "hits": 0, "records": 0,
            }

    def test_extract_recorded_then_served(self, tmp_path, book_grammar):
        from repro import ExtractSpec, extract

        led = tmp_path / "ledger.jsonl"
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        config = ServiceConfig(port=0, jobs=1, ledger=str(led))
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                first = client.extract(BOOK_XML, spec=spec,
                                       dtd=BOOK_DTD, root="bib")
                second = client.extract(BOOK_XML, spec=spec,
                                        dtd=BOOK_DTD, root="bib")
        assert first.ledger == "recorded" and second.ledger == "hit"
        local = extract(BOOK_XML, book_grammar, spec)
        assert second.text == first.text == local.text
        assert second.stats.as_dict() == local.stats.as_dict()

    def test_server_ledger_replays_offline(self, tmp_path, book_grammar):
        """Entries recorded for *path* sources carry everything replay
        needs — the path, the inline DTD, the projector — so a later
        ``verify-ledger`` run attests them with no server around."""
        from repro.ledger import replay_ledger

        led = tmp_path / "ledger.jsonl"
        src = tmp_path / "bib.xml"
        src.write_text(BOOK_XML)
        out = tmp_path / "pruned.xml"
        config = ServiceConfig(port=0, jobs=1, ledger=str(led))
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                outcome = client.prune(
                    source_path=str(src), out_path=str(out),
                    dtd=BOOK_DTD, root="bib", queries=[QUERY],
                )
                assert outcome.ledger == "recorded"
        report = replay_ledger(str(led))
        assert report.ok and report.attested == report.total == 1

    def test_hit_serves_out_path_without_a_worker(self, tmp_path,
                                                  book_grammar):
        led = tmp_path / "ledger.jsonl"
        src = tmp_path / "bib.xml"
        src.write_text(BOOK_XML)
        config = ServiceConfig(port=0, jobs=1, ledger=str(led))
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                first = client.prune(source_path=str(src),
                                     out_path=str(tmp_path / "a.xml"),
                                     dtd=BOOK_DTD, root="bib",
                                     queries=[QUERY])
                second = client.prune(source_path=str(src),
                                      out_path=str(tmp_path / "b.xml"),
                                      dtd=BOOK_DTD, root="bib",
                                      queries=[QUERY])
                assert second.ledger == "hit"
                assert second.worker is None  # served without pinning a worker
        assert (tmp_path / "a.xml").read_text() == \
            (tmp_path / "b.xml").read_text()

    def test_ledger_survives_an_independent_update(self, tmp_path,
                                                   book_grammar):
        """A proven-independent grammar update keeps the recorded results
        servable — the ledger is content-addressed, so retained pins and
        retained attestations go together."""
        led = tmp_path / "ledger.jsonl"
        config = ServiceConfig(port=0, jobs=1, ledger=str(led))
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                             queries=[QUERY])
                verdict = client.check_update(
                    "/bib/book/price", dtd=BOOK_DTD, root="bib",
                    queries=[QUERY],
                )
                assert verdict["independent"] is True
                outcome = client.prune(BOOK_XML, dtd=BOOK_DTD, root="bib",
                                       queries=[QUERY])
                assert outcome.ledger == "hit"
                stats = client.stats()
                assert stats["ledger"]["entries"] == 1
                assert stats["ledger"]["hits"] == 1
