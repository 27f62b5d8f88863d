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

import pytest

from repro import ExtractSpec, extract, extract_many, obs, prune, prune_many
from repro.core.cache import resolve_projector
from repro.engine.loader import load_many
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
        assert batch.jobs == (os.cpu_count() or 1)

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
