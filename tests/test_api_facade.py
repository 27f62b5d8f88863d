"""The unified prune() facade (repro.api): source/out dispatch,
PruneOptions, parity with the old per-source entry points."""

import io
import os
import pathlib
from dataclasses import replace

import pytest

from repro import PruneOptions, PruneResult, prune
from repro.api import DEFAULT_OPTIONS
from repro.dtd.grammar import text_name
from repro.errors import ReproError
from repro.xmltree.builder import build_tree
from repro.xmltree.parser import parse_events
from tests.conftest import BOOK_XML


@pytest.fixture()
def projector(book_grammar):
    return book_grammar.projector_closure(["title", text_name("title")])


class TestSourceDispatch:
    def test_markup_string_returns_text(self, book_grammar, projector):
        result = prune(BOOK_XML, book_grammar, projector)
        assert isinstance(result, PruneResult)
        assert result.text.startswith("<bib>")
        assert result.events is None and result.output_path is None
        assert result.stats.bytes_in == len(BOOK_XML.encode("utf-8"))

    def test_leading_whitespace_still_markup(self, book_grammar, projector):
        result = prune("\n  " + BOOK_XML, book_grammar, projector)
        assert "<title>" in result.text

    def test_path_string_reads_file(self, book_grammar, projector, tmp_path):
        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        result = prune(str(source), book_grammar, projector)
        assert "<title>" in result.text
        assert result.stats.bytes_in == os.path.getsize(source)

    def test_pathlike_source_and_out(self, book_grammar, projector, tmp_path):
        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        out = tmp_path / "out.xml"
        result = prune(source, book_grammar, projector, out=out)
        assert result.output_path == str(out)
        assert result.text is None
        assert "<title>" in pathlib.Path(result.output_path).read_text()

    def test_stream_source(self, book_grammar, projector):
        result = prune(io.StringIO(BOOK_XML), book_grammar, projector)
        assert "<title>" in result.text

    def test_stream_out(self, book_grammar, projector):
        sink = io.StringIO()
        result = prune(BOOK_XML, book_grammar, projector, out=sink)
        assert result.text is None and result.output_path is None
        assert "<title>" in sink.getvalue()
        assert result.stats.bytes_out == len(sink.getvalue())

    def test_event_source_returns_events(self, book_grammar, projector):
        result = prune(parse_events(BOOK_XML), book_grammar, projector)
        document = build_tree(iter(result))  # PruneResult is iterable
        assert {node.tag for node in document.elements()} == {"bib", "book", "title"}
        # Stats finish filling once the iterator is exhausted.
        assert result.stats.elements_out == 7  # bib + 3 book + 3 title

    def test_event_source_rejects_out(self, book_grammar, projector):
        with pytest.raises(ReproError):
            prune(parse_events(BOOK_XML), book_grammar, projector, out=io.StringIO())

    def test_unprunable_source_type(self, book_grammar, projector):
        with pytest.raises(TypeError):
            prune(42, book_grammar, projector)

    def test_text_result_is_not_iterable_as_events(self, book_grammar, projector):
        result = prune(BOOK_XML, book_grammar, projector)
        with pytest.raises(TypeError):
            iter(result)


class TestAllFormsAgree:
    def test_same_output_every_way(self, book_grammar, projector, tmp_path):
        """Every source kind (markup, path, PathLike, open stream) into
        every ``out`` kind (collect, path, stream), for prune and extract,
        with and without a ledger: the same bytes, stats and records.
        With a ledger each form runs twice and the counts follow the
        facade docstrings: an open-stream source bypasses the ledger, a
        stream ``out`` is recorded but never served, every other form is
        recorded once and then served."""
        from repro import ExtractSpec, extract, obs
        from repro.ledger import Ledger

        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        sources = {
            "markup": lambda: BOOK_XML,
            "path": lambda: str(source),
            "pathlike": lambda: source,
            "stream": lambda: io.StringIO(BOOK_XML),
        }
        spec = ExtractSpec(
            rows="/bib/book", fields={"title": "title/text()", "isbn": "@isbn"}
        )
        ops = {
            "prune": lambda src, **kw: prune(src, book_grammar, projector, **kw),
            "extract": lambda src, **kw: extract(src, book_grammar, spec, **kw),
        }
        for op, run in ops.items():
            baseline = run(BOOK_XML)
            assert baseline.stats.bytes_in == len(BOOK_XML.encode("utf-8"))
            for src_kind, make_source in sources.items():
                # An open stream cannot be measured: bytes_in stays 0.
                expected_stats = (
                    replace(baseline.stats, bytes_in=0)
                    if src_kind == "stream" else baseline.stats
                )
                for out_kind in ("none", "path", "stream"):
                    for with_ledger in (False, True):
                        form = f"{op} {src_kind} -> {out_kind}, ledger={with_ledger}"
                        tag = f"{op}-{src_kind}-{out_kind}-{with_ledger}"
                        ledger = (
                            Ledger(tmp_path / f"{tag}.jsonl", fsync=False)
                            if with_ledger else None
                        )
                        runs = 2 if with_ledger else 1
                        with obs.capture() as trace:
                            for attempt in range(runs):
                                out_file = tmp_path / f"{tag}-{attempt}.out"
                                sink = io.StringIO()
                                out = {"none": None, "path": out_file,
                                       "stream": sink}[out_kind]
                                result = run(make_source(), out=out, ledger=ledger)
                                if out_kind == "none":
                                    text = result.text
                                    assert result.output_path is None, form
                                elif out_kind == "path":
                                    text = out_file.read_text()
                                    assert result.output_path == str(out_file), form
                                    assert result.text is None, form
                                else:
                                    text = sink.getvalue()
                                    assert result.text is None, form
                                    assert result.output_path is None, form
                                assert text == baseline.text, form
                                assert result.stats == expected_stats, form
                                if op == "extract":
                                    expected_records = (
                                        baseline.records if out_kind == "none" else None
                                    )
                                    assert result.records == expected_records, form
                        if ledger is None:
                            continue
                        ledger.close()
                        if src_kind == "stream":
                            records, hits = 0, 0
                        elif out_kind == "stream":
                            records, hits = 1, 0
                        else:
                            records, hits = 1, 1
                        assert (ledger.appended, ledger.hits) == (records, hits), form
                        counters = trace.counters()
                        assert counters.get("ledger.records", 0) == records, form
                        assert counters.get("ledger.hits", 0) == hits, form

    @pytest.mark.parametrize("fast", [True, False])
    def test_fast_flag_is_byte_identical(self, book_grammar, projector, fast):
        result = prune(BOOK_XML, book_grammar, projector, fast=fast)
        baseline = prune(BOOK_XML, book_grammar, projector)
        assert result.text == baseline.text


class TestSourceOpensBeforeSink:
    @pytest.mark.parametrize("op", ["prune", "extract"])
    def test_missing_input_keeps_existing_output(
        self, book_grammar, projector, tmp_path, op
    ):
        """The source is opened before the sink: a missing input raises
        without truncating (or removing) a file already at ``out``."""
        from repro import ExtractSpec, extract

        out = tmp_path / "out.txt"
        out.write_bytes(b"precious\n")
        missing = str(tmp_path / "missing.xml")
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with pytest.raises(FileNotFoundError):
            if op == "prune":
                prune(missing, book_grammar, projector, out=str(out))
            else:
                extract(missing, book_grammar, spec, out=str(out))
        assert out.read_bytes() == b"precious\n"

    @pytest.mark.parametrize("op", ["prune", "extract"])
    @pytest.mark.parametrize("through", ["path", "symlink"])
    def test_output_that_is_the_source_is_refused(
        self, book_grammar, projector, tmp_path, op, through
    ):
        """An ``out`` path naming the source file (directly or through a
        link) is refused before it is opened: opening it would truncate
        the input before the scan reads it."""
        from repro import ExtractSpec, extract

        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML, encoding="utf-8")
        out = source
        if through == "symlink":
            out = tmp_path / "link.xml"
            out.symlink_to(source)
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with pytest.raises(ReproError, match="is the source file"):
            if op == "prune":
                prune(str(source), book_grammar, projector, out=str(out))
            else:
                extract(str(source), book_grammar, spec, out=str(out))
        assert source.read_text(encoding="utf-8") == BOOK_XML


class TestOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS == PruneOptions()
        assert DEFAULT_OPTIONS.fast and not DEFAULT_OPTIONS.validate

    def test_options_object(self, book_grammar, projector):
        opts = PruneOptions(fast=False, chunk_size=7)
        result = prune(BOOK_XML, book_grammar, projector, options=opts)
        assert "<title>" in result.text

    def test_keyword_overrides_options(self, book_grammar):
        # validate=True in options, overridden off by the keyword: the
        # invalid document must then prune without raising (projector keeps
        # only the root, and the default pipeline doesn't check order).
        opts = PruneOptions(validate=True)
        bad = "<bib><book><author>a</author><title>t</title></book></bib>"
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            prune(bad, book_grammar, frozenset({"bib"}), options=opts)
        result = prune(bad, book_grammar, frozenset({"bib"}),
                       options=opts, validate=False)
        assert result.text == "<bib/>"

    def test_options_are_frozen(self):
        with pytest.raises(Exception):
            PruneOptions().fast = False
