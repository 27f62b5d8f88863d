"""Unit tests for :mod:`repro.limits` and the governed pipeline.

The fuzz battery (``test_fuzz_robustness.py``) establishes that hostile
input never escapes the structured-error contract; these tests pin down
the *specific* semantics: profile contents, which limit trips where, the
fast-path fallback (rewind, stats rollback, obs counter), and encoding
errors.
"""

from __future__ import annotations

import io

import pytest

from repro import Limits, obs, prune
from repro.dtd.grammar import grammar_from_text
from repro.errors import (
    DeadlineExceeded,
    EncodingError,
    LimitExceeded,
    ReproError,
    ResourceError,
)
from repro.limits import (
    DEFAULT_LIMITS,
    OFF_LIMITS,
    STRICT_LIMITS,
    LimitGuard,
    resolve_limits,
)
from repro.projection.fastpath import FastPruner

DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title)>
<!ATTLIST book year CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
"""


@pytest.fixture(scope="module")
def bib():
    grammar = grammar_from_text(DTD, "bib")
    return grammar, frozenset({"bib", "book", "title"})


def _nested(depth: int) -> str:
    return "<bib>" + "<book>" * depth + "</book>" * depth + "</bib>"


# -- Limits configuration ------------------------------------------------------


class TestLimitsConfig:
    def test_profiles_resolve_by_name(self):
        assert Limits.profile("off") is OFF_LIMITS
        assert Limits.profile("default") is DEFAULT_LIMITS
        assert Limits.profile("strict") is STRICT_LIMITS

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown limits profile"):
            Limits.profile("paranoid")

    def test_off_is_unbounded_and_guardless(self):
        assert Limits.off().unbounded
        assert Limits.off().guard() is None

    def test_bounded_limits_produce_a_guard(self):
        assert isinstance(Limits(max_depth=4).guard(), LimitGuard)

    def test_replace_overrides_one_bound(self):
        limits = Limits.strict().replace(max_depth=3)
        assert limits.max_depth == 3
        assert limits.max_token_bytes == STRICT_LIMITS.max_token_bytes

    def test_resolve_limits(self):
        assert resolve_limits(None) is DEFAULT_LIMITS
        assert resolve_limits("strict") is STRICT_LIMITS
        custom = Limits(max_depth=7)
        assert resolve_limits(custom) is custom

    def test_error_hierarchy(self):
        assert issubclass(LimitExceeded, ResourceError)
        assert issubclass(DeadlineExceeded, ResourceError)
        assert issubclass(ResourceError, ReproError)
        error = LimitExceeded("depth", 11, 10)
        assert (error.limit, error.value, error.maximum) == ("depth", 11, 10)


# -- which limit trips where ---------------------------------------------------


class TestEnforcement:
    @pytest.mark.parametrize("fast", [True, False])
    def test_depth_limit_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        with pytest.raises(LimitExceeded) as info:
            prune(_nested(60), grammar, projector, fast=fast,
                  limits=Limits(max_depth=50))
        assert info.value.limit == "depth"

    def test_depth_limit_sees_pruned_subtrees(self, bib):
        grammar, projector = bib
        # Nesting hidden inside a region the fast path bulk-skips must
        # still count toward the depth limit.
        hostile = (
            "<bib><book><title>"
            + "x" * 4
            + "</title></book>"
            + _nested(60)[5:-6]  # the deep book chain, inside the same bib
            + "</bib>"
        )
        with pytest.raises(LimitExceeded):
            prune(hostile, grammar, frozenset({"bib", "title", "book"}),
                  limits=Limits(max_depth=50))

    # A document whose only element one level past the limit is a
    # text-only leaf, which the fused scan reads as one token: kept whole,
    # dropped whole under a kept <book>, or inside a bulk-skipped <book>.
    # The chunk sizes put a chunk edge at every offset of the document.
    LEAF_PAST_THE_LIMIT = '<bib>\n<book year="1"><title>leaf</title></book></bib>'

    @pytest.mark.parametrize(
        "chunk_size", [*range(1, len(LEAF_PAST_THE_LIMIT) + 2), 1 << 16]
    )
    @pytest.mark.parametrize(
        "kept",
        [("bib",), ("bib", "book"), ("bib", "book", "title", "title#text")],
        ids=["skipped", "dropped", "kept"],
    )
    def test_depth_limit_counts_a_leaf(self, bib, kept, chunk_size):
        grammar, _ = bib
        xml = self.LEAF_PAST_THE_LIMIT
        for drive in (
            lambda pruner: pruner.write(io.StringIO(xml), io.StringIO(), chunk_size),
            lambda pruner: list(pruner.events(io.StringIO(xml), chunk_size)),
        ):
            pruner = FastPruner(grammar, kept, guard=Limits(max_depth=2).guard())
            with pytest.raises(LimitExceeded) as info:
                drive(pruner)
            assert str(info.value) == "depth limit exceeded: 3 > 2"

    def test_input_limit_trips(self, bib):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 100 + "</bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, limits=Limits(max_input_bytes=200))
        assert info.value.limit == "input_bytes"

    @pytest.mark.parametrize("fast", [True, False])
    def test_output_limit_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 1000 + "</bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, fast=fast,
                  limits=Limits(max_output_bytes=100))
        assert info.value.limit == "output_bytes"

    def test_token_limit_trips_on_giant_text(self, bib):
        grammar, projector = bib
        doc = f"<bib><book><title>{'x' * 5000}</title></book></bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, fast=False,
                  limits=Limits(max_token_bytes=1000))
        assert info.value.limit == "token_bytes"

    @pytest.mark.parametrize("fast", [True, False])
    def test_deadline_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 30000 + "</bib>"
        with pytest.raises(DeadlineExceeded):
            prune(doc, grammar, projector, fast=fast,
                  limits=Limits(deadline=1e-9))

    def test_deadline_trips_on_parse_document(self, bib):
        from repro.xmltree.builder import parse_document

        doc = "<bib>" + "<book><title>t</title></book>" * 30000 + "</bib>"
        with pytest.raises(DeadlineExceeded):
            parse_document(doc, limits=Limits(deadline=1e-9))

    def test_parse_document_depth_limit(self):
        from repro.xmltree.builder import parse_document

        with pytest.raises(LimitExceeded):
            parse_document(_nested(60), limits=Limits(max_depth=50))

    def test_event_source_is_governed(self, bib):
        grammar, projector = bib
        from repro.xmltree.parser import parse_events

        events = parse_events(_nested(60))
        result = prune(events, grammar, projector, limits=Limits(max_depth=50))
        with pytest.raises(LimitExceeded):
            for _ in result:
                pass

    def test_limits_off_never_trips(self, bib):
        grammar, projector = bib
        assert prune(_nested(500), grammar, projector, limits="off").text


# -- graceful degradation (fast -> events fallback) ---------------------------


class TestFallback:
    def _wide_tag_doc(self, attrs: int = 100) -> str:
        # Each attribute is small (the event parser reads them one by
        # one) but the whole tag — which the fast path's bulk scan reads
        # as ONE token — exceeds the limit.
        rendered = " ".join(f'a{i}="{"x" * 20}"' for i in range(attrs))
        return f"<bib><book {rendered}><title>t</title></book></bib>"

    def test_wide_tag_falls_back_and_matches_streaming(self, bib):
        grammar, projector = bib
        doc = self._wide_tag_doc()
        limits = Limits(max_token_bytes=500)
        with obs.capture() as sink:
            fast = prune(doc, grammar, projector, limits=limits)
        slow = prune(doc, grammar, projector, fast=False, limits=limits)
        assert fast.text == slow.text
        assert sink.counters().get("fastpath.fallbacks") == 1

    def test_fallback_false_surfaces_the_refusal(self, bib):
        grammar, projector = bib
        with pytest.raises(LimitExceeded) as info:
            prune(self._wide_tag_doc(), grammar, projector,
                  limits=Limits(max_token_bytes=500), fallback=False)
        assert info.value.limit == "token_bytes"

    def test_forced_fallback_counts_and_matches(self, bib):
        grammar, projector = bib
        doc = "<bib><book year='1'><title>t</title></book></bib>"
        with obs.capture() as sink:
            forced = prune(doc, grammar, projector, fallback="force")
        assert forced.text == prune(doc, grammar, projector).text
        assert sink.counters().get("fastpath.fallbacks") == 1

    def test_fallback_mid_stream_rewinds_file_source(self, bib, tmp_path):
        grammar, projector = bib
        # Put the wide tag deep into the document so the fast path has
        # consumed plenty of input before tripping.
        doc = ("<bib>" + "<book><title>t</title></book>" * 200
               + self._wide_tag_doc()[5:-6] + "</bib>")
        path = tmp_path / "doc.xml"
        path.write_text(doc, encoding="utf-8")
        limits = Limits(max_token_bytes=500)
        out = tmp_path / "out.xml"
        result = prune(str(path), grammar, projector, out=str(out), limits=limits)
        slow = prune(doc, grammar, projector, fast=False, limits=limits)
        assert out.read_text(encoding="utf-8") == slow.text
        assert result.stats.elements_out == slow.stats.elements_out

    def test_fallback_rolls_back_stats(self, bib):
        grammar, projector = bib
        doc = self._wide_tag_doc()
        limits = Limits(max_token_bytes=500)
        fast = prune(doc, grammar, projector, limits=limits).stats
        slow = prune(doc, grammar, projector, fast=False, limits=limits).stats
        assert fast.elements_in == slow.elements_in
        assert fast.attributes_in == slow.attributes_in
        assert fast.bytes_out == slow.bytes_out

    @pytest.mark.parametrize("op", ["prune", "extract"])
    def test_fallback_rewinds_a_ledger_tee(self, bib, tmp_path, op):
        """The fallback rewinds the caller's stream and restarts the
        output hash whether or not a ledger tees the output: bytes and
        stats equal the ledger-free run's, and the one appended entry
        attests the sink's final text."""
        from repro import ExtractSpec, extract
        from repro.ledger import Ledger
        from repro.ledger.canonical import hash_text

        grammar, projector = bib
        # Enough output ahead of the wide tag that the fast pass has
        # already written to the caller's sink when it trips (markup is
        # flushed every 64 KB, records row by row).
        books = 20000 if op == "prune" else 3
        doc = ("<bib>" + "<book><title>t</title></book>" * books
               + self._wide_tag_doc()[5:-6] + "</bib>")
        limits = Limits(max_token_bytes=500)
        if op == "prune":
            def run(**kw):
                return prune(doc, grammar, projector, limits=limits, **kw)
        else:
            spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})

            def run(**kw):
                return extract(doc, grammar, spec, limits=limits, **kw)
        plain_sink = io.StringIO()
        plain = run(out=plain_sink)
        sink = io.StringIO()
        with Ledger(tmp_path / "ledger.jsonl", fsync=False) as ledger:
            with obs.capture() as trace:
                attested = run(out=sink, ledger=ledger)
            assert ledger.appended == 1 and len(ledger) == 1
            entry = ledger.entries[0]
        assert sink.getvalue() == plain_sink.getvalue()
        assert attested.stats == plain.stats
        assert entry.output_hash == hash_text(sink.getvalue())
        assert trace.counters().get("fastpath.fallbacks") == 1

    def test_fallback_does_not_extend_the_deadline(self, bib):
        grammar, projector = bib
        guard = Limits(deadline=30.0).guard()
        before = guard.deadline_at
        guard.add_input(100)
        guard.rewind()
        assert guard.deadline_at == before  # rewind keeps the clock running
        assert guard._input == 0


# -- encoding hostility --------------------------------------------------------


class TestEncoding:
    def test_undecodable_file_raises_encoding_error(self, bib, tmp_path):
        grammar, projector = bib
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<bib><book><title>\xff\xfe\x9c</title></book></bib>")
        with pytest.raises(EncodingError):
            prune(str(path), grammar, projector)

    def test_encoding_error_is_a_repro_error(self):
        assert issubclass(EncodingError, ReproError)

    def test_partial_output_removed_on_limit_refusal(self, bib, tmp_path):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 2000 + "</bib>"
        out = tmp_path / "out.xml"
        with pytest.raises(LimitExceeded):
            prune(doc, grammar, projector, out=str(out),
                  limits=Limits(max_output_bytes=100))
        assert not out.exists()
