"""Token-aware XPath/XQuery detection (regression: the old substring
heuristic classified any query containing " return " as XQuery)."""

import pytest

from repro.querylang import looks_like_xquery

XQUERY = [
    "for $b in /bib/book return $b/title",
    "  for $b in doc('x')//a where $b/@id return <r>{$b}</r>",
    "let $x := /a/b return $x",
    "some $x in //a satisfies $x = 1",
    "if (/a/b) then <yes/> else <no/>",
    "<wrapper>{/a/b}</wrapper>",
    'xquery version "1.0"; /a/b',
    "declare variable $x := 1; $x",
    "for $t in /site//item\nwhere $t/payment\nreturn $t",
    "$b/title return $b",          # clause after a path expression
    "//a[1] return .",             # clause after a predicate
    '"done" return 1',             # clause after a literal
]

XPATH = [
    "/bib/book/title",
    "//listitem//keyword",
    '//listitem[text()=" return me"]',      # keyword inside a string literal
    "//book[contains(., ' where ')]",
    "//return",                             # name test called "return"
    "/site/return/item",
    "//return/where",
    "child::return",                        # axis-qualified name test
    "@return",
    "//@where",
    "$input//return",                       # variable then a step
    "//well-return",                        # keyword glued inside a name
    "//a[@b='x where y']",
]


@pytest.mark.parametrize("query", XQUERY)
def test_xquery_detected(query):
    assert looks_like_xquery(query)


@pytest.mark.parametrize("query", XPATH)
def test_xpath_not_misrouted(query):
    assert not looks_like_xquery(query)


class TestEngineRouting:
    """Both routes exercised end-to-end through QueryEngine.run."""

    @pytest.fixture()
    def engine(self, book_document):
        from repro.engine.executor import QueryEngine

        return QueryEngine(book_document)

    def test_xpath_route(self, engine):
        report = engine.run('//book[author="Dante"]/title')
        assert report.result_count == 2

    def test_xpath_with_return_in_literal(self, engine):
        # The regression case: must go to the XPath evaluator (the XQuery
        # parser would reject it or, worse, silently misparse it).
        report = engine.run('//title[text()=" return me"]')
        assert report.result_count == 0

    def test_xquery_route(self, engine):
        report = engine.run('for $b in /bib/book where $b/author = "Dante" return $b/title')
        assert report.result_count == 2


class TestCliRouting:
    def test_cli_uses_same_detection(self):
        from repro.querylang import looks_like_xquery

        assert looks_like_xquery("for $b in /bib return $b")
        assert not looks_like_xquery('//listitem[text()=" return me"]')
