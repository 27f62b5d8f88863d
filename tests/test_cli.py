"""CLI tests driving ``repro-xml`` subcommands through main()."""

import os

import pytest

from repro.cli import main
from tests.conftest import BOOK_DTD, BOOK_XML


@pytest.fixture()
def workspace(tmp_path):
    dtd = tmp_path / "bib.dtd"
    dtd.write_text(BOOK_DTD)
    xml = tmp_path / "bib.xml"
    xml.write_text(BOOK_XML)
    return tmp_path, str(dtd), str(xml)


class TestAnalyze:
    def test_prints_projector(self, workspace, capsys):
        _, dtd, _ = workspace
        code = main(["analyze", "--dtd", dtd, "--root", "bib", "--query", "//title"])
        assert code == 0
        out = capsys.readouterr().out
        assert "title" in out and "bib" in out

    def test_xmark_builtin(self, capsys):
        assert main(["analyze", "--xmark", "--query", "//item/name"]) == 0
        assert "item" in capsys.readouterr().out

    def test_multiple_queries_union(self, workspace, capsys):
        _, dtd, _ = workspace
        main([
            "analyze", "--dtd", dtd, "--root", "bib",
            "--query", "//title", "--query", "//price",
        ])
        out = capsys.readouterr().out
        assert "title" in out and "price" in out

    def test_xquery_detected(self, workspace, capsys):
        _, dtd, _ = workspace
        main([
            "analyze", "--dtd", dtd, "--root", "bib",
            "--query", "for $b in /bib/book return $b/title",
        ])
        assert "title" in capsys.readouterr().out

    def test_missing_dtd_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--query", "//x"])


class TestPrune:
    def test_prunes_file(self, workspace, capsys):
        tmp_path, dtd, xml = workspace
        out_path = str(tmp_path / "pruned.xml")
        code = main([
            "prune", "--dtd", dtd, "--root", "bib",
            "--query", "//author", xml, out_path,
        ])
        assert code == 0
        with open(out_path) as handle:
            content = handle.read()
        assert "author" in content and "price" not in content

    def test_validating_prune(self, workspace):
        tmp_path, dtd, xml = workspace
        out_path = str(tmp_path / "pruned.xml")
        assert main([
            "prune", "--dtd", dtd, "--root", "bib",
            "--query", "//author", xml, out_path, "--validate",
        ]) == 0


class TestValidate:
    def test_valid(self, workspace, capsys):
        _, dtd, xml = workspace
        assert main(["validate", "--dtd", dtd, "--root", "bib", xml]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid(self, workspace, tmp_path, capsys):
        _, dtd, _ = workspace
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib><book><author>a</author></book></bib>")
        assert main(["validate", "--dtd", dtd, "--root", "bib", str(bad)]) == 1


class TestGenerateAndRun:
    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "auction.xml")
        assert main(["generate", "--factor", "0.0005", "--output", out]) == 0
        assert os.path.getsize(out) > 1000

    def test_run_with_pruning(self, tmp_path, capsys):
        out = str(tmp_path / "auction.xml")
        main(["generate", "--factor", "0.0005", "--output", out])
        assert main([
            "run", "--xmark", "--query", "//item/name", out, "--prune",
        ]) == 0
        assert "results:" in capsys.readouterr().out

    def test_run_without_pruning(self, workspace, capsys):
        _, dtd, xml = workspace
        assert main(["run", "--dtd", dtd, "--root", "bib", "--query", "//title", xml]) == 0


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-xml" in out
        assert repro.__version__ in out
