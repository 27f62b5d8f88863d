"""Tests for :mod:`repro.parallel` — the multiprocess batch-pruning engine.

The contract under test: ``jobs=1`` is byte-identical to calling the
:func:`repro.prune` facade per document; any pool width produces the same
results in input order; a malformed document (or a crashed worker) yields
a structured :class:`~repro.parallel.BatchError` without poisoning the
other items or hanging the pool; and worker-side obs records merge back
into the parent tracer.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro
from repro import ExtractSpec, extract, extract_many, obs, pool, prune, prune_many
from repro.core.cache import resolve_projector
from repro.engine.loader import load_many
from repro.errors import ReproError
from repro.parallel import (
    BatchError,
    _output_paths,
    expand_sources,
)

QUERY = "/bib/book/title"

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _doc(i: int) -> str:
    return (
        f'<bib><book year="20{i % 100:02d}"><title>T{i}</title>'
        f"<author>A{i}</author><price>{i}.00</price></book></bib>"
    )


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture()
def corpus(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"doc{i:02d}.xml"
        path.write_text(_doc(i), encoding="utf-8")
        paths.append(str(path))
    return paths


# -- source expansion ---------------------------------------------------------


class TestExpandSources:
    def test_single_path_passes_through(self, corpus):
        assert expand_sources(corpus[0]) == [corpus[0]]

    def test_markup_passes_through(self):
        assert expand_sources("<bib/>") == ["<bib/>"]
        assert expand_sources("  <bib/>") == ["  <bib/>"]

    def test_glob_expands_sorted(self, corpus, tmp_path):
        assert expand_sources(str(tmp_path / "doc*.xml")) == sorted(corpus)

    def test_directory_expands_sorted(self, corpus, tmp_path):
        assert expand_sources(str(tmp_path)) == sorted(corpus)

    def test_directory_skips_dotfiles_and_subdirs(self, corpus, tmp_path):
        (tmp_path / ".hidden.xml").write_text("<x/>")
        (tmp_path / "sub").mkdir()
        assert expand_sources(str(tmp_path)) == sorted(corpus)

    def test_mixed_list_preserves_order(self, corpus, tmp_path):
        spec = ["<bib/>", corpus[2], str(tmp_path / "doc0*.xml")]
        expanded = expand_sources(spec)
        assert expanded[0] == "<bib/>"
        assert expanded[1] == corpus[2]
        assert expanded[2:] == sorted(corpus)
    def test_rejects_non_source_items(self):
        with pytest.raises(TypeError):
            expand_sources([42])


class TestOutputPaths:
    def test_path_sources_keep_basename(self):
        paths = _output_paths(["/a/x.xml", "/b/y.xml"], "out")
        assert paths == [os.path.join("out", "x.xml"), os.path.join("out", "y.xml")]

    def test_basename_collision_gets_index_prefix(self):
        paths = _output_paths(["/a/x.xml", "/b/x.xml"], "out")
        assert paths[0] == os.path.join("out", "x.xml")
        assert paths[1] == os.path.join("out", "00001_x.xml")

    def test_markup_sources_get_indexed_names(self):
        paths = _output_paths(["<bib/>", "<bib/>"], "out")
        assert paths == [
            os.path.join("out", "doc00000.xml"),
            os.path.join("out", "doc00001.xml"),
        ]

    def test_prefixed_name_never_lands_on_another_item(self):
        paths = _output_paths(["a/x.xml", "b/00002_x.xml", "c/x.xml"], "out")
        assert len(set(paths)) == 3
        assert paths[:2] == [os.path.join("out", "x.xml"), os.path.join("out", "00002_x.xml")]


# -- serial mode (jobs=1) -----------------------------------------------------


class TestSerial:
    def test_jobs1_matches_facade_byte_for_byte(self, corpus, book_grammar):
        projector = resolve_projector(book_grammar, QUERY)
        batch = prune_many(corpus, book_grammar, QUERY, jobs=1)
        assert batch.ok
        assert batch.jobs == 1
        for path, result in zip(corpus, batch.results):
            assert result.text == prune(path, book_grammar, projector).text

    def test_accepts_projector_directly(self, corpus, book_grammar):
        projector = resolve_projector(book_grammar, QUERY)
        by_query = prune_many(corpus, book_grammar, QUERY)
        by_projector = prune_many(corpus, book_grammar, projector)
        assert by_query.texts() == by_projector.texts()

    def test_accepts_markup_sources(self, book_grammar):
        batch = prune_many([_doc(0), _doc(1)], book_grammar, QUERY)
        assert batch.ok
        assert batch.results[0].text == prune(_doc(0), book_grammar,
                                              resolve_projector(book_grammar, QUERY)).text

    def test_aggregate_stats_sum_over_items(self, corpus, book_grammar):
        batch = prune_many(corpus, book_grammar, QUERY)
        singles = [prune(p, book_grammar, resolve_projector(book_grammar, QUERY)).stats
                   for p in corpus]
        assert batch.stats.elements_in == sum(s.elements_in for s in singles)
        assert batch.stats.bytes_out == sum(s.bytes_out for s in singles)
        assert batch.stats.distinct_tags_out == set.union(
            *(set(s.distinct_tags_out) for s in singles)
        )

    def test_unpickled_stats_share_tag_names(self):
        """Worker stats reach the parent pickled; unpickling interns the
        tag names, so per-document stats do not each keep a copy."""
        import pickle

        from repro.projection.stats import PruneStats

        def stats_naming(*parts: str) -> PruneStats:
            stats = PruneStats(elements_in=2, elements_out=1, bytes_out=9)
            stats.distinct_tags_in.update(("".join(parts), "bib"))
            stats.distinct_tags_out.add("".join(parts))
            return stats

        first, second = stats_naming("ti", "tle"), stats_naming("tit", "le")
        assert next(iter(first.distinct_tags_out)) is not next(iter(second.distinct_tags_out))
        first_back, second_back = (pickle.loads(pickle.dumps(s)) for s in (first, second))
        assert (first_back, second_back) == (first, second)
        for back in (first_back, second_back):
            assert back.distinct_tags_in == {"title", "bib"}
        (name_a,) = first_back.distinct_tags_out
        (name_b,) = second_back.distinct_tags_out
        assert name_a is name_b
        assert {id(name) for name in first_back.distinct_tags_in} == {
            id(name) for name in second_back.distinct_tags_in
        }

    def test_empty_sources(self, book_grammar):
        batch = prune_many([], book_grammar, QUERY)
        assert batch.ok
        assert batch.documents == 0
        assert batch.results == []

    def test_out_dir_writes_files(self, corpus, book_grammar, tmp_path):
        out_dir = tmp_path / "pruned"
        batch = prune_many(corpus, book_grammar, QUERY, out_dir=out_dir)
        assert batch.ok
        projector = resolve_projector(book_grammar, QUERY)
        for path, result in zip(corpus, batch.results):
            assert result.text is None
            assert os.path.basename(result.output_path) == os.path.basename(path)
            with open(result.output_path, encoding="utf-8") as handle:
                assert handle.read() == prune(path, book_grammar, projector).text
        assert batch.output_paths() == [r.output_path for r in batch.results]

    def test_malformed_document_reports_error_others_succeed(
        self, corpus, book_grammar, tmp_path
    ):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib><book year='1'><title>oops</book></bib>")
        items = corpus[:2] + [str(bad)] + corpus[2:]
        batch = prune_many(items, book_grammar, QUERY)
        assert not batch.ok
        assert batch.succeeded == len(corpus)
        (error,) = batch.errors
        assert isinstance(error, BatchError)
        assert error.index == 2
        assert error.kind == "XMLSyntaxError"
        assert batch.results[2] is None
        assert batch.texts()[2] is None
        assert all(text is not None for i, text in enumerate(batch.texts()) if i != 2)

    def test_missing_file_reports_error(self, book_grammar):
        batch = prune_many(["/nonexistent/doc.xml"], book_grammar, QUERY)
        (error,) = batch.errors
        assert error.kind == "FileNotFoundError"

    def test_invalid_jobs_raises(self, corpus, book_grammar):
        with pytest.raises(ValueError):
            prune_many(corpus, book_grammar, QUERY, jobs=-2)

    def test_bad_projector_raises_in_parent(self, corpus, book_grammar):
        with pytest.raises(Exception):
            prune_many(corpus, book_grammar, frozenset({"NotAName"}))


class TestSourcesAreNeverOverwritten:
    """A batch whose output path names one of its own sources is refused
    in the parent, before any file is written or any worker spawned."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_dir_holding_the_sources_is_refused(
        self, corpus, book_grammar, tmp_path, jobs
    ):
        before = {path: _read(path) for path in corpus}
        with pytest.raises(ReproError, match="refusing to overwrite an input"):
            prune_many(corpus, book_grammar, QUERY, jobs=jobs, out_dir=tmp_path)
        assert {path: _read(path) for path in corpus} == before
        assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, corpus))
        assert pool._resident is None

    def test_output_naming_another_items_source_is_refused(
        self, book_grammar, tmp_path
    ):
        (tmp_path / "d").mkdir()
        (tmp_path / "e").mkdir()
        first, second = tmp_path / "d" / "x.xml", tmp_path / "e" / "x.xml"
        first.write_text(_doc(1), encoding="utf-8")
        second.write_text(_doc(2), encoding="utf-8")
        with pytest.raises(ReproError, match="of item 0 is the source of item 1"):
            prune_many([str(first), str(second)], book_grammar, QUERY,
                       out_dir=tmp_path / "e")
        assert first.read_text(encoding="utf-8") == _doc(1)
        assert second.read_text(encoding="utf-8") == _doc(2)


# -- pool mode (jobs>1) -------------------------------------------------------


class TestPool:
    def test_pool_matches_serial_in_order(self, corpus, book_grammar):
        serial = prune_many(corpus, book_grammar, QUERY, jobs=1)
        pooled = prune_many(corpus, book_grammar, QUERY, jobs=2)
        assert pooled.ok
        assert pooled.jobs == 2
        assert pooled.texts() == serial.texts()

    def test_pool_out_dir(self, corpus, book_grammar, tmp_path):
        serial = prune_many(corpus, book_grammar, QUERY, jobs=1)
        out_dir = tmp_path / "pooled"
        pooled = prune_many(corpus, book_grammar, QUERY, jobs=2, out_dir=out_dir)
        assert pooled.ok
        for result, text in zip(pooled.results, serial.texts()):
            with open(result.output_path, encoding="utf-8") as handle:
                assert handle.read() == text

    def test_pool_malformed_document_does_not_poison_batch(
        self, corpus, book_grammar, tmp_path
    ):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib><unclosed>")
        items = [str(bad)] + corpus
        batch = prune_many(items, book_grammar, QUERY, jobs=2)
        assert batch.succeeded == len(corpus)
        (error,) = batch.errors
        assert error.index == 0
        assert all(text is not None for text in batch.texts()[1:])

    def test_pool_merges_worker_obs(self, corpus, book_grammar):
        with obs.capture() as sink:
            batch = prune_many(corpus, book_grammar, QUERY, jobs=2)
            obs.flush()
        assert batch.ok
        prune_spans = sink.spans("prune")
        assert len(prune_spans) == len(corpus)
        # every worker span is tagged with the process that ran it
        workers = {span["attrs"].get("worker") for span in prune_spans}
        assert None not in workers
        # fused fast path counts one document per prune
        assert sink.counters().get("fastpath.documents") == len(corpus)
        (batch_span,) = sink.spans("prune.batch")
        assert batch_span["attrs"]["jobs"] == 2
        assert batch_span["counters"]["elements_in"] == batch.stats.elements_in

    def test_jobs_zero_uses_all_cores(self, corpus, book_grammar):
        batch = prune_many(corpus[:2], book_grammar, QUERY, jobs=0)
        assert batch.ok
        if hasattr(os, "sched_getaffinity"):
            assert batch.jobs == len(os.sched_getaffinity(0))
        else:
            assert batch.jobs == (os.cpu_count() or 1)

    def test_jobs_zero_counts_only_the_cpus_this_process_may_use(
        self, corpus, book_grammar, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert prune_many(corpus[:2], book_grammar, QUERY, jobs=0).jobs == 1
        assert pool.ResidentPool(0).jobs == 1  # the service's width

    @pytest.mark.skipif(not HAS_FORK, reason="crash injection requires fork")
    def test_worker_crash_yields_structured_errors_not_hang(
        self, corpus, book_grammar, monkeypatch
    ):
        import repro.parallel as parallel
        import repro.pool as pool

        def _crash(pruner, options, source, out_path, spec=None):
            os._exit(13)

        # fork workers inherit the patched module, so every item's worker
        # dies abruptly; the pool must report each item, not hang.
        monkeypatch.setattr(pool, "_execute_item", _crash)
        batch = prune_many(corpus, book_grammar, QUERY, jobs=2)
        assert batch.succeeded == 0
        assert len(batch.errors) == len(corpus)
        assert {error.kind for error in batch.errors} == {parallel.WORKER_CRASH}
        assert [error.index for error in batch.errors] == list(range(len(corpus)))

    @pytest.mark.skipif(not HAS_FORK, reason="crash injection requires fork")
    def test_crash_then_clean_run_reuses_nothing_stale(self, corpus, book_grammar, monkeypatch):
        import repro.pool as pool

        monkeypatch.setattr(
            pool, "_execute_item", lambda *a: os._exit(13)
        )
        crashed = prune_many(corpus[:2], book_grammar, QUERY, jobs=2)
        assert not crashed.ok
        monkeypatch.undo()
        clean = prune_many(corpus[:2], book_grammar, QUERY, jobs=2)
        assert clean.ok


# -- per-item timeouts, respawn, and degradation ------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="stall injection requires fork")
class TestPoolTimeout:
    """Batch-timeout semantics: a stuck worker is killed, only its item
    fails (``kind="timeout"``), the remaining items still complete in
    input order, and the pool is respawned at most once per kill."""

    def _stall_on(self, monkeypatch, needles):
        import repro.pool as pool
        import time as _time

        real = pool._execute_item

        def stalling(pruner, options, source, out_path, spec=None):
            if any(needle in source for needle in needles):
                _time.sleep(60)
            return real(pruner, options, source, out_path, spec)

        # fork workers inherit the patched module, so the marked items
        # hang inside their worker while the rest run normally.
        monkeypatch.setattr(pool, "_execute_item", stalling)

    def test_stuck_item_times_out_others_complete(
        self, corpus, book_grammar, monkeypatch
    ):
        self._stall_on(monkeypatch, ["doc00"])
        batch = prune_many(corpus, book_grammar, QUERY, jobs=2, timeout=1.0)
        assert {(e.index, e.kind) for e in batch.errors} == {(0, "timeout")}
        assert batch.results[0] is None
        assert all(result is not None for result in batch.results[1:])
        assert batch.respawns <= 1
        monkeypatch.undo()
        serial = prune_many(corpus, book_grammar, QUERY, jobs=1)
        assert batch.texts()[1:] == serial.texts()[1:]

    def test_both_workers_stuck_respawns_pool_once(
        self, corpus, book_grammar, monkeypatch
    ):
        # The first two items stall both workers, so the queued items can
        # only complete after the pool is killed and respawned.
        self._stall_on(monkeypatch, ["doc00", "doc01"])
        batch = prune_many(corpus, book_grammar, QUERY, jobs=2, timeout=1.0)
        assert {(e.index, e.kind) for e in batch.errors} == {
            (0, "timeout"),
            (1, "timeout"),
        }
        assert all(result is not None for result in batch.results[2:])
        assert batch.respawns == 1

    def test_timeout_with_no_stall_changes_nothing(self, corpus, book_grammar):
        timed = prune_many(corpus, book_grammar, QUERY, jobs=2, timeout=30.0)
        plain = prune_many(corpus, book_grammar, QUERY, jobs=1)
        assert timed.ok
        assert timed.respawns == 0
        assert timed.texts() == plain.texts()

    def test_jobs1_timeout_folds_into_deadline(self, corpus, book_grammar, monkeypatch):
        import repro.pool as pool

        seen = []
        real = pool._execute_item

        def recording(pruner, options, source, out_path, spec=None):
            seen.append(options.limits)
            return real(pruner, options, source, out_path, spec)

        monkeypatch.setattr(pool, "_execute_item", recording)
        batch = prune_many(corpus[:2], book_grammar, QUERY, jobs=1, timeout=2.5)
        assert batch.ok
        assert all(lim is not None and lim.deadline == 2.5 for lim in seen)

    def test_nonpositive_timeout_raises(self, corpus, book_grammar):
        with pytest.raises(ValueError):
            prune_many(corpus, book_grammar, QUERY, jobs=2, timeout=0)


@pytest.mark.skipif(not HAS_FORK, reason="retry injection requires fork")
class TestCrashRetry:
    def test_crashed_item_retried_once(self, corpus, book_grammar, monkeypatch, tmp_path):
        import repro.pool as pool

        marker = tmp_path / "crashed-once"
        real = pool._execute_item

        def crash_first_time(pruner, options, source, out_path, spec=None):
            if "doc02" in source and not marker.exists():
                marker.touch()
                os._exit(13)
            return real(pruner, options, source, out_path, spec)

        monkeypatch.setattr(pool, "_execute_item", crash_first_time)
        batch = prune_many(
            corpus, book_grammar, QUERY, jobs=2, retry_crashes=True
        )
        assert batch.results[2] is not None
        assert batch.respawns >= 1

    def test_persistent_crash_still_reported_once_retried(
        self, corpus, book_grammar, monkeypatch
    ):
        import repro.parallel as parallel
        import repro.pool as pool

        real = pool._execute_item

        def always_crash(pruner, options, source, out_path, spec=None):
            if "doc02" in source:
                os._exit(13)
            return real(pruner, options, source, out_path, spec)

        monkeypatch.setattr(pool, "_execute_item", always_crash)
        batch = prune_many(
            corpus, book_grammar, QUERY, jobs=2, retry_crashes=True
        )
        crash_errors = [e for e in batch.errors if e.kind == parallel.WORKER_CRASH]
        assert {e.index for e in crash_errors} == {2}

    def test_only_the_crashing_item_is_blamed_in_a_long_batch(
        self, book_grammar, monkeypatch, tmp_path
    ):
        import repro.parallel as parallel
        import repro.pool as pool

        paths = []
        for i in range(40):
            path = tmp_path / f"doc{i:02d}.xml"
            path.write_text(_doc(i), encoding="utf-8")
            paths.append(str(path))
        real = pool._execute_item

        def always_crash(pruner, options, source, out_path, spec=None):
            if "doc07" in source:
                os._exit(13)
            return real(pruner, options, source, out_path, spec)

        monkeypatch.setattr(pool, "_execute_item", always_crash)
        batch = prune_many(paths, book_grammar, QUERY, jobs=2, retry_crashes=True)
        assert [(e.index, e.kind) for e in batch.errors] == [(7, parallel.WORKER_CRASH)]
        assert all(result is not None for i, result in enumerate(batch.results) if i != 7)
        # The first jobs=2 crashed items of a round are the only suspects,
        # each retried alone: a few rounds, however long the batch.
        assert batch.respawns <= 6


@pytest.mark.skipif(not HAS_FORK, reason="fingerprint skew requires fork")
class TestFingerprintMismatch:
    def test_mismatch_falls_back_to_parent_side_prune(
        self, corpus, book_grammar, monkeypatch
    ):
        import repro.pool as pool

        real = pool.grammar_fingerprint
        parent = os.getpid()

        def skewed(grammar):
            fingerprint = real(grammar)
            # The parent sees the true fingerprint; forked workers see a
            # different one, simulating a grammar that does not survive
            # the process boundary intact.
            return fingerprint if os.getpid() == parent else fingerprint + "-skewed"

        monkeypatch.setattr(pool, "grammar_fingerprint", skewed)
        with obs.capture() as sink:
            batch = prune_many(corpus, book_grammar, QUERY, jobs=2)
            obs.flush()
        assert batch.ok, batch.errors
        assert sink.counters().get("parallel.fingerprint_fallbacks") == len(corpus)
        monkeypatch.undo()
        serial = prune_many(corpus, book_grammar, QUERY, jobs=1)
        assert batch.texts() == serial.texts()


# -- the resident pool ---------------------------------------------------------


def _traced_workers(sink, name="prune") -> set[int]:
    return {span["attrs"]["worker"] for span in sink.spans(name)}


def _slow_items(monkeypatch, needle: str, seconds: float) -> None:
    """Make items whose source contains ``needle`` take ``seconds``
    longer (fork workers inherit the patch)."""
    real = pool._execute_item

    def slow(pruner, options, source, out_path, spec=None):
        if needle in source:
            time.sleep(seconds)
        return real(pruner, options, source, out_path, spec)

    monkeypatch.setattr(pool, "_execute_item", slow)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie nobody reaped has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


_ORPHAN_SCRIPT = """
import os, sys, time
from repro import pool, prune_many
from repro.dtd.grammar import grammar_from_text
grammar = grammar_from_text(
    "<!ELEMENT bib (book*)><!ELEMENT book (title)><!ELEMENT title (#PCDATA)>", "bib")
docs = ["<bib><book><title>%d</title></book></bib>" % i for i in range(4)]
assert prune_many(docs, grammar, "/bib/book/title", jobs=2).ok
print(" ".join(map(str, pool._resident[0]._executor._processes)), flush=True)
ending = sys.argv[1]
if ending == "_exit":
    os._exit(0)
if ending == "kill":
    time.sleep(60)
"""


@pytest.mark.skipif(not HAS_FORK, reason="the resident pool forks its workers")
class TestResidentPool:
    """The batch pool stays up between calls, and is reused only while it
    still fits the call."""

    def test_consecutive_calls_run_in_the_same_workers(
        self, corpus, book_grammar, monkeypatch
    ):
        _slow_items(monkeypatch, "doc", 0.02)  # so both workers take items
        with obs.capture() as sink:
            first = prune_many(corpus, book_grammar, QUERY, jobs=2)
            obs.flush()
            workers = _traced_workers(sink)
        with obs.capture() as sink:
            second = prune_many(corpus, book_grammar, QUERY, jobs=2)
            obs.flush()
        assert first.ok and second.ok
        assert len(workers) == 2
        assert _traced_workers(sink) == workers
        assert second.respawns == 0

    def test_new_projector_and_extraction_reuse_the_pool(self, corpus, book_grammar):
        other = "/bib/book/author"
        with obs.capture() as sink:
            pooled = [
                prune_many(corpus, book_grammar, QUERY, jobs=2).texts(),
                prune_many(corpus, book_grammar, other, jobs=2).texts(),
                [r.text for r in extract_many(corpus, book_grammar, EXTRACT_SPEC,
                                              jobs=2).results],
            ]
            obs.flush()
        assert len(_traced_workers(sink) | _traced_workers(sink, "extract")) <= 2
        # New pins ship to the running workers, not back to the parent.
        assert "parallel.fingerprint_fallbacks" not in sink.counters()
        assert pooled == [
            prune_many(corpus, book_grammar, QUERY, jobs=1).texts(),
            prune_many(corpus, book_grammar, other, jobs=1).texts(),
            [r.text for r in extract_many(corpus, book_grammar, EXTRACT_SPEC).results],
        ]

    def test_tracing_turned_on_between_calls_reaches_the_workers(
        self, corpus, book_grammar
    ):
        assert prune_many(corpus, book_grammar, QUERY, jobs=2).ok
        with obs.capture() as sink:
            assert prune_many(corpus, book_grammar, QUERY, jobs=2).ok
            obs.flush()
        assert len(sink.spans("prune")) == len(corpus)

    def test_relative_paths_follow_the_working_directory(
        self, book_grammar, tmp_path, monkeypatch
    ):
        for i, name in enumerate(["one", "two"]):
            (tmp_path / name).mkdir()
            (tmp_path / name / "doc.xml").write_text(_doc(i), encoding="utf-8")
        for name in ["one", "two"]:
            monkeypatch.chdir(tmp_path / name)
            pooled = prune_many(["doc.xml"], book_grammar, QUERY, jobs=2, out_dir="out")
            assert pooled.ok, pooled.errors
            serial = prune_many(["doc.xml"], book_grammar, QUERY, jobs=1)
            with open(tmp_path / name / "out" / "doc.xml", encoding="utf-8") as handle:
                assert handle.read() == serial.texts()[0]

    def test_worker_killed_between_calls_is_not_reused(self, corpus, book_grammar):
        assert prune_many(corpus, book_grammar, QUERY, jobs=2).ok
        resident = pool._resident[0]
        os.kill(next(iter(resident._executor._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not pool._broken(resident) and time.monotonic() < deadline:
            time.sleep(0.02)
        batch = prune_many(corpus, book_grammar, QUERY, jobs=2)
        assert batch.ok, batch.errors
        assert batch.respawns == 0

    def test_pins_stay_bounded(self, corpus, book_grammar):
        leaves = ["title", "author", "year", "price"]
        for mask in range(2 ** len(leaves)):
            projector = frozenset(
                ["bib", "book"] + [leaf for bit, leaf in enumerate(leaves) if mask >> bit & 1]
            )
            assert prune_many(corpus[:2], book_grammar, projector, jobs=2).ok
        assert prune_many(corpus[:2], book_grammar, frozenset({"bib"}), jobs=2).ok
        assert pool._resident[0].pinned <= pool._MAX_PINS

    def test_child_forked_after_a_call_runs_its_own_batch(self, corpus, book_grammar):
        assert prune_many(corpus, book_grammar, QUERY, jobs=2).ok
        with warnings.catch_warnings():
            # 3.12+ flags a fork while the resident pool's threads run.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = os.fork()
        if child == 0:
            code = 1
            try:
                code = 0 if prune_many(corpus, book_grammar, QUERY, jobs=2).ok else 3
                pool._retire()
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while (done := os.waitpid(child, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                pytest.fail("the forked child's batch did not finish in 10 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_calls_only_fail_the_stuck_item(
        self, corpus, book_grammar, monkeypatch, tmp_path
    ):
        """The clean call's 40 slow items keep it running through the
        stuck call's timeout kill: on a shared pool the kill would take
        the clean call's items down with it."""
        slow = []
        for i in range(40):
            path = tmp_path / f"slow{i:02d}.xml"
            path.write_text(_doc(i), encoding="utf-8")
            slow.append(str(path))
        _slow_items(monkeypatch, "doc00", 60)
        _slow_items(monkeypatch, "slow", 0.05)
        batches = {}

        def run(name, items, **kwargs):
            batches[name] = prune_many(items, book_grammar, QUERY, jobs=2, **kwargs)

        threads = [
            threading.Thread(target=run, args=("stuck", corpus), kwargs={"timeout": 1.0}),
            threading.Thread(target=run, args=("clean", slow)),
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.1)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert {(e.index, e.kind) for e in batches["stuck"].errors} == {(0, "timeout")}
        assert batches["clean"].ok, batches["clean"].errors

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    @pytest.mark.parametrize("ending", ["exit", "_exit", "kill"])
    def test_no_worker_outlives_its_parent(self, ending):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, ending],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        workers: list[int] = []
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            if ending == "kill":
                proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            left = [pid for pid in workers if _alive(pid)]
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
        assert len(workers) == 2
        assert left == []

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="the fork-with-threads warning is 3.12+")
    @pytest.mark.skipif(not HAS_FORK, reason="the warning is about fork")
    def test_fork_beside_a_thread_records_no_warning(self, book_grammar):
        """The workers fork in the executor's first submit, which is what
        the warning has to be silenced around."""
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        resident = pool.ResidentPool(2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                key = resident.pin(book_grammar, resolve_projector(book_grammar, [QUERY]))
                error, result, *_ = resident.submit(
                    key, _doc(1), None, repro.PruneOptions()
                ).result(timeout=60)
        finally:
            resident.shutdown()
            release.set()
            thread.join()
        assert error is None and result.text
        assert [str(w.message) for w in caught if "fork" in str(w.message)] == []


# -- batch extraction ---------------------------------------------------------


EXTRACT_SPEC = ExtractSpec(
    rows="/bib/book",
    fields={"title": "title/text()", "author": "author/text()"},
)


class TestExtractMany:
    def test_serial_matches_facade(self, corpus, book_grammar):
        batch = extract_many(corpus, book_grammar, EXTRACT_SPEC)
        assert batch.ok and batch.jobs == 1
        assert batch.documents == len(corpus)
        for path, result in zip(corpus, batch.results):
            solo = extract(path, book_grammar, EXTRACT_SPEC)
            assert result.text == solo.text
            assert result.records == solo.records
        assert batch.stats.rows_out == len(corpus)  # one book per doc

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_matches_serial(self, corpus, book_grammar):
        serial = extract_many(corpus, book_grammar, EXTRACT_SPEC)
        pool = extract_many(corpus, book_grammar, EXTRACT_SPEC, jobs=2)
        assert pool.ok
        assert [r.text for r in pool.results] == [r.text for r in serial.results]
        assert pool.stats.as_dict() == serial.stats.as_dict()

    def test_out_dir_takes_the_format_extension(self, corpus, book_grammar,
                                                tmp_path):
        out = tmp_path / "rows"
        batch = extract_many(corpus, book_grammar, EXTRACT_SPEC,
                             out_dir=str(out), format="csv")
        assert batch.ok
        names = sorted(os.listdir(out))
        assert names == [f"doc{i:02d}.csv" for i in range(6)]
        lines = (out / names[0]).read_text().splitlines()
        assert lines[0] == "title,author"
        assert lines[1] == "T0,A0"

    def test_error_isolation(self, corpus, book_grammar, tmp_path):
        bad = tmp_path / "zz_bad.xml"  # sorts after the corpus docs
        bad.write_text("<bib><book></bib>")
        items = corpus[:2] + [str(bad)]
        batch = extract_many(items, book_grammar, EXTRACT_SPEC)
        assert not batch.ok
        assert [error.index for error in batch.errors] == [2]
        assert batch.results[2] is None
        assert batch.results[0] is not None and batch.results[1] is not None
        assert batch.succeeded == 2

    def test_foreign_grammar_fails_per_item_not_globally(self, corpus):
        from repro.dtd.grammar import grammar_from_text

        other = grammar_from_text("<!ELEMENT catalog (#PCDATA)>", "catalog")
        spec = ExtractSpec(rows="/catalog", fields={"v": "text()"})
        batch = extract_many(corpus[:1], other, spec)
        # Documents from the wrong vocabulary fail as data, per item —
        # the same structured-error contract as prune_many.
        assert not batch.ok
        assert [error.index for error in batch.errors] == [0]


# -- engine integration -------------------------------------------------------


class TestLoadMany:
    def test_reports_align_with_sources(self, corpus, book_grammar, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib><nope/></bib>")
        items = corpus[:2] + [str(bad)]
        reports, batch = load_many(items, book_grammar, QUERY)
        assert len(reports) == 3
        assert reports[2] is None
        assert batch.errors[0].index == 2
        for report in reports[:2]:
            assert report.document.root.tag == "bib"
            assert report.prune_stats is not None

    def test_loaded_trees_answer_the_query(self, corpus, book_grammar):
        from repro.engine.executor import QueryEngine

        reports, batch = load_many(corpus, book_grammar, QUERY, jobs=2)
        assert batch.ok
        counts = [QueryEngine(r.document).run(QUERY).result_count for r in reports]
        assert counts == [1] * len(corpus)
