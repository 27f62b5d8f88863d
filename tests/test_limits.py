"""Unit tests for :mod:`repro.limits` and the governed pipeline.

The fuzz battery (``test_fuzz_robustness.py``) establishes that hostile
input never escapes the structured-error contract; these tests pin down
the *specific* semantics: profile contents, which limit trips where, a
wide tag refused alike by both pipelines into every sink, and encoding
errors.
"""

from __future__ import annotations

import io

import pytest

from repro import Limits, prune
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


# -- wide tags: one token, refused alike by both pipelines -------------------


class _Unseekable(io.StringIO):
    """A sink that cannot seek, like a pipe or a socket."""

    def seekable(self) -> bool:
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


WIDE_DTD = """
<!ELEMENT doc (b*)>
<!ELEMENT b (#PCDATA)>
"""

#: 20,000 kept elements, then one 1 KB start tag of 40 attributes.  Each
#: attribute fits in 200 characters; the tag, one token, does not.
WIDE_DOC = (
    "<doc>" + "<b>x</b>" * 20_000
    + "<b " + " ".join(f'a{i}="{"v" * 20}"' for i in range(40)) + ">y</b></doc>"
)
WIDE_LIMITS = Limits(max_token_bytes=200)


class TestWideTags:
    """``max_token_bytes`` bounds a tag with all its attributes, in the
    fused pass and in the event pipeline alike: the wide tag gets the same
    refusal whatever the pipeline, the operation or the sink."""

    @pytest.fixture(scope="class")
    def wide(self):
        from repro import ExtractSpec

        grammar = grammar_from_text(WIDE_DTD, "doc")
        spec = ExtractSpec(rows="/doc/b", fields={"text": "text()"})
        return grammar, spec

    @staticmethod
    def _sinks(tmp_path):
        return {
            "string": None,
            "path": str(tmp_path / "out"),
            "seekable": io.StringIO(),
            "unseekable": _Unseekable(),
        }

    @pytest.mark.parametrize("op", ["prune", "extract"])
    def test_every_pipeline_and_sink_refuses_alike(self, wide, tmp_path, op):
        from repro import extract

        grammar, spec = wide
        refusals = set()
        for fast in (True, False):
            for name, sink in self._sinks(tmp_path).items():
                with pytest.raises(LimitExceeded) as refused:
                    if op == "prune":
                        prune(WIDE_DOC, grammar, {"doc", "b"}, out=sink,
                              fast=fast, limits=WIDE_LIMITS)
                    else:
                        extract(WIDE_DOC, grammar, spec, out=sink,
                                fast=fast, limits=WIDE_LIMITS)
                assert refused.value.limit == "token_bytes", (fast, name)
                refusals.add(str(refused.value))
                if name == "path":
                    assert not (tmp_path / "out").exists()
        assert refusals == {"token_bytes limit exceeded: 209 > 200"}

    def test_default_surfaces_the_refusal(self, bib):
        """The wide tag is refused by default: no option turns the
        fused pass into a second pass."""
        grammar, projector = bib
        rendered = " ".join(f'a{i}="{"x" * 20}"' for i in range(100))
        doc = f"<bib><book {rendered}><title>t</title></book></bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, limits=Limits(max_token_bytes=500))
        assert info.value.limit == "token_bytes"

    def test_batch_reports_a_structured_error(self, wide):
        from repro import prune_many

        grammar, _ = wide
        batch = prune_many(
            [WIDE_DOC, "<doc><b>x</b></doc>"], grammar, {"doc", "b"},
            jobs=2, limits=WIDE_LIMITS,
        )
        assert [(e.index, e.kind, e.message) for e in batch.errors] == [
            (0, "LimitExceeded", "token_bytes limit exceeded: 209 > 200")
        ]
        assert batch.succeeded == 1

    def test_service_reports_a_structured_error(self):
        from repro.core.cache import ProjectorCache
        from repro.errors import RemoteError
        from repro.service import ServiceClient, ServiceConfig, serve_background

        config = ServiceConfig(port=0, jobs=1)
        with serve_background(config, cache=ProjectorCache()) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                with pytest.raises(RemoteError) as refused:
                    client.prune(WIDE_DOC, dtd=WIDE_DTD, root="doc",
                                 projector=["doc", "b"], limits=WIDE_LIMITS)
        assert refused.value.remote_type == "LimitExceeded"
        assert str(refused.value) == (
            "LimitExceeded: token_bytes limit exceeded: 209 > 200"
        )


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
