"""Streaming pruner tests: equivalence with Def 2.7, validation mode,
stats, constant-memory structure."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd.grammar import text_name
from repro.dtd.validator import validate
from repro.errors import ProjectorError, ValidationError
from repro.api import prune
from repro.projection.streaming import StreamingPruner
from repro.projection.tree import prune_document
from repro.workloads.randomgen import random_grammar, random_valid_document
from repro.xmltree.builder import build_tree, parse_document
from repro.xmltree.parser import parse_events
from repro.xmltree.serializer import serialize
from tests.conftest import BOOK_XML


class TestStreamingEqualsTree:
    def _both(self, grammar, xml, projector):
        document = parse_document(xml)
        interpretation = validate(document, grammar)
        tree_pruned = prune_document(document, interpretation, projector)
        streamed = prune(xml, grammar, projector).text
        return serialize(tree_pruned), streamed

    def test_on_books(self, book_grammar):
        projector = book_grammar.projector_closure(["author", text_name("author")])
        tree, stream = self._both(book_grammar, BOOK_XML, projector)
        assert tree == stream

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_random(self, grammar_seed, document_seed, selection_seed):
        import random

        grammar = random_grammar(grammar_seed)
        document = random_valid_document(grammar, document_seed)
        rng = random.Random(selection_seed)
        projector = grammar.projector_closure(
            [name for name in sorted(grammar.reachable_names()) if rng.random() < 0.4]
            or [grammar.root]
        ) | {grammar.root}
        interpretation = validate(document, grammar)
        tree_pruned = serialize(prune_document(document, interpretation, projector))
        streamed = prune(serialize(document), grammar, projector).text
        assert streamed == tree_pruned


class TestStreamingBehaviour:
    def test_projector_must_keep_root(self, book_grammar):
        with pytest.raises(ProjectorError):
            StreamingPruner(book_grammar, frozenset())

    def test_non_projector_rejected(self, book_grammar):
        with pytest.raises(ProjectorError):
            StreamingPruner(book_grammar, frozenset({"bib", "title"}))

    def test_undeclared_element_raises_without_validator(self, book_grammar):
        pruner = StreamingPruner(book_grammar, frozenset({"bib"}))
        with pytest.raises(ValidationError):
            list(pruner.process(parse_events("<bib><mystery/></bib>")))

    def test_validating_mode_rejects_invalid_content(self, book_grammar):
        events = parse_events("<bib><book><author>a</author><title>t</title></book></bib>")
        with pytest.raises(ValidationError):
            list(prune(events, book_grammar, frozenset({"bib"}), validate=True).events)

    def test_validating_mode_checks_even_pruned_regions(self, book_grammar):
        # The projector drops <book>, but validation still sees the
        # invalid order inside it (prune-while-validate, Section 6).
        events = parse_events("<bib><book><author>a</author><title>t</title></book></bib>")
        projector = frozenset({"bib"})
        with pytest.raises(ValidationError):
            list(prune(events, book_grammar, projector, validate=True).events)

    def test_comments_and_pis_pass_through(self, book_grammar):
        xml = "<bib><!--note--><?pi data?></bib>"
        pruned = prune(xml, book_grammar, frozenset({"bib"})).text
        assert "<!--note-->" in pruned and "<?pi data?>" in pruned

    @pytest.mark.parametrize("fast", [True, False])
    def test_misc_inside_pruned_subtree_is_dropped(self, book_grammar, fast):
        # Regression: comments/PIs inside a discarded subtree used to leak
        # through (the skip-depth guard only covered element and text
        # events), detaching them from their dropped context.
        xml = ("<bib><book><title>t<!--inner--></title>"
               "<author>a<?proc data?></author></book>"
               "<!--kept: bib level--></bib>")
        pruned = prune(xml, book_grammar, frozenset({"bib"}), fast=fast).text
        assert "inner" not in pruned and "proc" not in pruned
        assert "<!--kept: bib level-->" in pruned

    def test_stats_populated(self, book_grammar):
        projector = book_grammar.projector_closure(["title", text_name("title")])
        stats = prune(BOOK_XML, book_grammar, projector).stats
        assert stats.elements_in > stats.elements_out > 0
        assert stats.bytes_in > stats.bytes_out > 0
        assert stats.distinct_tags_out < stats.distinct_tags_in

    def test_prune_stream_file_objects(self, book_grammar):
        sink = io.StringIO()
        stats = prune(
            io.StringIO(BOOK_XML), book_grammar,
            book_grammar.projector_closure(["title"]), out=sink,
        ).stats
        assert "<title/>" in sink.getvalue()
        assert stats.bytes_out == len(sink.getvalue())

    def test_pruned_output_is_valid_when_projector_is_wellformed(self, book_grammar):
        # Pruning with a projector that keeps required children intact
        # yields a document that still validates.
        projector = book_grammar.projector_closure(
            ["title", text_name("title"), "author", text_name("author")]
        )
        pruned = prune(BOOK_XML, book_grammar, projector).text
        validate(parse_document(pruned), book_grammar)

    def test_depth_only_state(self, book_grammar):
        """The pruner's state is bounded by depth: after processing, its
        open-tag stack is empty and no node buffers exist."""
        pruner = StreamingPruner(book_grammar, frozenset({"bib"}))
        list(pruner.process(parse_events(BOOK_XML)))
        assert pruner._open_names == []
        assert pruner._skip_depth == 0


class TestByteAccounting:
    @pytest.mark.parametrize("fast", [True, False])
    def test_prune_string_counts_utf8_bytes(self, book_grammar, fast):
        # Regression: bytes_in was len(text) — *code points* — while
        # prune_file reports os.path.getsize — UTF-8 *bytes* — skewing
        # size ratios on non-ASCII documents.
        xml = "<bib><book><title>Ærøskøbing — ☃</title><author>ø</author></book></bib>"
        stats = prune(xml, book_grammar, frozenset({"bib"}), fast=fast).stats
        assert stats.bytes_in == len(xml.encode("utf-8"))
        assert stats.bytes_in > len(xml)

    def test_prune_string_matches_prune_file_accounting(self, book_grammar, tmp_path):
        xml = "<bib><book><title>naïve ☃</title><author>a</author></book></bib>"
        source = tmp_path / "in.xml"
        source.write_text(xml, encoding="utf-8")
        file_stats = prune(
            str(source), book_grammar, frozenset({"bib"}),
            out=str(tmp_path / "out.xml"),
        ).stats
        string_stats = prune(xml, book_grammar, frozenset({"bib"})).stats
        assert string_stats.bytes_in == file_stats.bytes_in


class TestPruneFileCleanup:
    @pytest.mark.parametrize("fast", [True, False])
    def test_partial_output_removed_on_parse_error(self, book_grammar, tmp_path, fast):
        # Regression: a mid-stream parse failure used to leave a truncated
        # half-pruned document behind, indistinguishable from a good run.
        from repro.errors import XMLSyntaxError

        source = tmp_path / "bad.xml"
        # Large valid prefix (forces buffered output to be flushed to
        # disk before the error), then a mismatched closing tag.
        books = "".join(
            f"<book><title>t{i}</title><author>a</author></book>" for i in range(3000)
        )
        source.write_text(f"<bib>{books}<book><title>x</author></book></bib>")
        output = tmp_path / "out.xml"
        with pytest.raises(XMLSyntaxError):
            prune(str(source), book_grammar,
                  book_grammar.projector_closure(["title", text_name("title")]),
                  out=str(output), fast=fast)
        assert not output.exists()

    def test_validation_failure_also_cleans_up(self, book_grammar, tmp_path):
        source = tmp_path / "invalid.xml"
        source.write_text("<bib><book><author>a</author><title>t</title></book></bib>")
        output = tmp_path / "out.xml"
        with pytest.raises(ValidationError):
            prune(str(source), book_grammar, frozenset({"bib"}),
                  out=str(output), validate=True)
        assert not output.exists()

    def test_missing_input_preserves_existing_output(self, book_grammar, tmp_path):
        # Opening the input fails *before* the output is touched — a
        # pre-existing file at the output path must survive.
        output = tmp_path / "precious.xml"
        output.write_text("<bib/>")
        with pytest.raises(FileNotFoundError):
            prune(str(tmp_path / "nope.xml"), book_grammar, frozenset({"bib"}),
                  out=str(output))
        assert output.read_text() == "<bib/>"

    @staticmethod
    def _deny_writes_to(monkeypatch, path: str):
        """Make opening ``path`` for writing fail, as an unwritable
        location would (the test runs as root, where real permission
        bits don't bite)."""
        import builtins

        real_open = builtins.open

        def guarded(file, mode="r", *args, **kwargs):
            if "w" in mode and str(file) == path:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded)

    def test_unwritable_output_preserves_existing_file(
        self, book_grammar, tmp_path, monkeypatch
    ):
        # Regression: the unified facade's cleanup used to fire even when
        # the output could not be *opened*, deleting a pre-existing file
        # that the failed run never wrote to (file -> file branch).
        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        output = tmp_path / "precious.xml"
        output.write_text("<bib/>")
        self._deny_writes_to(monkeypatch, str(output))
        with pytest.raises(PermissionError):
            prune(str(source), book_grammar, frozenset({"bib"}), out=str(output))
        assert output.read_text() == "<bib/>"

    def test_unwritable_output_preserves_existing_file_markup_source(
        self, book_grammar, tmp_path, monkeypatch
    ):
        # Same contract on the markup -> path branch (no source file to
        # open before the output).
        output = tmp_path / "precious.xml"
        output.write_text("<bib/>")
        self._deny_writes_to(monkeypatch, str(output))
        with pytest.raises(PermissionError):
            prune(BOOK_XML, book_grammar, frozenset({"bib"}), out=str(output))
        assert output.read_text() == "<bib/>"

    def test_markup_source_midstream_failure_removes_partial_output(
        self, book_grammar, tmp_path
    ):
        # The markup -> path branch writes under the same _open_output
        # contract: a mid-stream failure must still remove the partial file.
        from repro.errors import XMLSyntaxError

        output = tmp_path / "out.xml"
        with pytest.raises(XMLSyntaxError):
            prune("<bib><book><title>x</author></book></bib>", book_grammar,
                  frozenset({"bib"}), out=str(output))
        assert not output.exists()


class TestEventRoundTrip:
    def test_pruned_events_build_a_valid_tree(self, book_grammar):
        projector = book_grammar.projector_closure(["author", text_name("author")])
        events = prune(parse_events(BOOK_XML), book_grammar, projector).events
        document = build_tree(events)
        assert {node.tag for node in document.elements()} == {"bib", "book", "author"}
