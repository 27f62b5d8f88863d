"""CLI tests for the dataguide and depth-adjacent flows added after the
core CLI suite."""

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


class TestInferDTD:
    def test_prune_with_inferred_grammar(self, workspace, capsys):
        tmp_path, _, xml = workspace
        out = str(tmp_path / "pruned.xml")
        code = main(["prune", "--infer-dtd", "--query", "//author", xml, out])
        assert code == 0
        with open(out) as handle:
            content = handle.read()
        assert "author" in content and "price" not in content

    def test_run_with_inferred_grammar(self, workspace, capsys):
        _, _, xml = workspace
        assert main(["run", "--infer-dtd", "--query", "//title", xml, "--prune"]) == 0
        assert "results: 3" in capsys.readouterr().out

    def test_analyze_requires_a_document_for_inference(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--infer-dtd", "--query", "//x"])

    def test_inferred_and_declared_prune_agree_on_answers(self, workspace, tmp_path):
        _, dtd, xml = workspace
        declared_out = str(tmp_path / "a.xml")
        inferred_out = str(tmp_path / "b.xml")
        main(["prune", "--dtd", dtd, "--root", "bib", "--query", "//author", xml, declared_out])
        main(["prune", "--infer-dtd", "--query", "//author", xml, inferred_out])
        from repro.xmltree.builder import parse_document
        from repro.xpath.evaluator import XPathEvaluator

        for path in (declared_out, inferred_out):
            with open(path) as handle:
                document = parse_document(handle.read())
            names = [n.text_value() for n in XPathEvaluator(document).select("//author")]
            assert names == ["Dante", "Melville", "Dante"]


class TestQueryKindMixing:
    def test_union_of_xpath_and_xquery_on_cli(self, workspace, capsys):
        _, dtd, _ = workspace
        code = main([
            "analyze", "--dtd", dtd, "--root", "bib",
            "--query", "//price",
            "--query", "for $b in /bib/book return $b/title",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "price" in out and "title" in out
