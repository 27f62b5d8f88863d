"""CLI tests driving ``repro-xml`` subcommands through main()."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from tests.conftest import BOOK_DTD, BOOK_XML

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


class TestInputThatNamesNoDocument:
    """Reported as ``error: <Type>: <msg>`` with exit 1, like a refusal:
    never a traceback, never an empty success."""

    @pytest.mark.parametrize("command", [
        ["prune", "--query", "//title"],
        ["extract", "--rows", "/bib/book", "--field", "t=title/text()"],
    ])
    def test_missing_file(self, workspace, capsys, command):
        tmp_path, dtd, _ = workspace
        out = tmp_path / "out.xml"
        argv = [*command, "--dtd", dtd, "--root", "bib", str(tmp_path / "missing.xml")]
        argv += [str(out)] if command[0] == "prune" else ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and "missing.xml" in err
        assert not out.exists()

    @pytest.mark.parametrize("pattern", ["nomatch*.xml", "empty"])
    def test_empty_match_creates_nothing(self, workspace, capsys, pattern):
        tmp_path, dtd, _ = workspace
        (tmp_path / "empty").mkdir()
        out_dir = tmp_path / "out"
        assert main([
            "prune", "--dtd", dtd, "--root", "bib", "--query", "//title",
            str(tmp_path / pattern), str(out_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and "no document" in err
        assert not out_dir.exists()


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

    def test_version_is_the_package_version(self, tmp_path, monkeypatch, capsys):
        """An installed distribution's metadata first on the path does not
        change what ``--version`` prints."""
        import repro

        metadata = tmp_path / "repro-9.9.9.dist-info"
        metadata.mkdir()
        (metadata / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: repro\nVersion: 9.9.9\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.split() == ["repro-xml", repro.__version__]

    def test_building_the_parser_leaves_package_metadata_unread(self):
        """Building the parser, which every CLI run does, imports no
        ``importlib.metadata``."""
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print('importlib.metadata' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestServerRunsKeepTheirInputs:
    """A ``--server`` run refuses an output that is one of its inputs
    exactly as a local run does: exit 1, the same message, and the input
    untouched — checked before anything is sent or written."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.core.cache import ProjectorCache
        from repro.service import ServiceConfig, serve_background

        with serve_background(
            ServiceConfig(port=0, jobs=1), cache=ProjectorCache()
        ) as background:
            yield f"127.0.0.1:{background.port}"

    @staticmethod
    def _refused_alike(argv, server, capsys, inputs):
        before = {path: path.read_bytes() for path in inputs}
        assert main(argv) == 1
        local = capsys.readouterr().err
        assert "refusing to overwrite" in local
        assert main([argv[0], "--server", server, *argv[1:]]) == 1
        assert capsys.readouterr().err == local
        assert {path: path.read_bytes() for path in inputs} == before

    def test_prune_onto_its_input(self, workspace, server, capsys):
        tmp_path, dtd, xml = workspace
        self._refused_alike(
            ["prune", "--dtd", dtd, "--root", "bib", "--query", "//title", xml, xml],
            server, capsys, [tmp_path / "bib.xml"],
        )

    def test_batch_prune_into_its_input_directory(self, workspace, server, capsys):
        tmp_path, dtd, _ = workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        inputs = []
        for i in range(3):
            inputs.append(corpus / f"doc{i}.xml")
            inputs[-1].write_text(BOOK_XML)
        self._refused_alike(
            ["prune", "--dtd", dtd, "--root", "bib", "--query", "//title",
             str(corpus / "*.xml"), str(corpus)],
            server, capsys, inputs,
        )

    def test_extract_onto_its_input(self, workspace, server, capsys):
        tmp_path, dtd, xml = workspace
        self._refused_alike(
            ["extract", "--dtd", dtd, "--root", "bib", "--rows", "/bib/book",
             "--field", "t=title/text()", xml, "--out", xml],
            server, capsys, [tmp_path / "bib.xml"],
        )


MALFORMED = "<bib><book><title>x</book></bib>"

#: The seven modes, each an argv without its grammar flags: ROWS stands
#: for the extraction's --rows/--field flags, OUT for the output path.
SERVER_MODES = {
    "prune one document": ["prune", "--query", "//title", "bib.xml", "OUT"],
    "prune a malformed document": ["prune", "--query", "//title", "bad.xml", "OUT"],
    "prune the corpus": ["prune", "--query", "//title", "corpus", "OUT"],
    "extract to stdout": ["extract", "ROWS", "bib.xml"],
    "extract --out FILE": ["extract", "ROWS", "bib.xml", "--out", "OUT"],
    "extract a malformed document": ["extract", "ROWS", "bad.xml"],
    "extract the corpus": ["extract", "ROWS", "corpus", "--out", "OUT"],
}


class TestServerRunsPrintWhatLocalRunsPrint:
    """A ``--server`` run prints what the local run prints — the same
    lines on the same streams in the same order, the same exit status
    and the same output files — except the one timing line, which names
    the server."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.core.cache import ProjectorCache
        from repro.service import ServiceConfig, serve_background

        with serve_background(
            ServiceConfig(port=0, jobs=2), cache=ProjectorCache()
        ) as background:
            yield f"127.0.0.1:{background.port}"

    @staticmethod
    def _run(argv, workspace, out, capsys):
        tmp_path, dtd, _ = workspace
        command, *rest = argv
        flags = ["--dtd", dtd, "--root", "bib"]
        rows = ["--rows", "/bib/book", "--field", "t=title/text()",
                "--field", "y=year/text()"]
        resolved = []
        for item in rest:
            if item == "ROWS":
                resolved += rows
            elif item == "OUT":
                resolved.append(str(out))
            elif item.endswith(".xml") or item == "corpus":
                resolved.append(str(tmp_path / item))
            else:
                resolved.append(item)
        code = main([command, *flags, *resolved])
        captured = capsys.readouterr()
        files = {}
        if out.is_file():
            files["OUT"] = out.read_text()
        elif out.is_dir():
            files = {path.name: path.read_text() for path in sorted(out.iterdir())}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("mode", list(SERVER_MODES))
    def test_mode(self, mode, workspace, server, capsys):
        tmp_path, _, _ = workspace
        (tmp_path / "bad.xml").write_text(MALFORMED)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a", "b", "c"):
            (corpus / f"{name}.xml").write_text(MALFORMED if name == "b" else BOOK_XML)
        argv = SERVER_MODES[mode]
        local = self._run(argv, workspace, tmp_path / "local", capsys)
        remote = self._run(
            [argv[0], "--server", server, *argv[1:]], workspace,
            tmp_path / "remote", capsys,
        )
        timing = re.compile(
            r"^(analysis: [\d.]+ ms, pruning: [\d.]+ s"
            r"|pruned via \S+ in [\d.]+ s"
            r"|(.*?)( with \d+ job\(s\)| via \S+)? in [\d.]+ s)$",
            re.M,
        )

        def masked(text, where):
            lines = [match.group(0) for match in timing.finditer(text)]
            if lines:
                assert len(lines) == 1, text
                assert (f"via {server} in " in lines[0]) == (where == "remote"), lines
            return timing.sub(lambda match: f"{match.group(2) or ''}<timing>", text)

        code, out, err, files = local
        assert (remote[0], masked(remote[1], "remote"), masked(remote[2], "remote"),
                remote[3]) == (code, masked(out, "local"), masked(err, "local"), files)
