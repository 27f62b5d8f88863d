"""Shared fixtures: the running-example bibliography, paper counter-example
grammars, and a small XMark document (session-scoped: generation and
validation are reused across the suite)."""

from __future__ import annotations

import pytest

from repro import pool
from repro.dtd.grammar import grammar_from_text
from repro.dtd.validator import validate
from repro.workloads.xmark import generate_document, xmark_grammar
from repro.xmltree.builder import parse_document

BOOK_DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?, price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ATTLIST book isbn CDATA #IMPLIED>
"""

BOOK_XML = (
    '<bib>'
    '<book isbn="d1"><title>Divina Commedia</title><author>Dante</author>'
    '<year>1320</year><price>12</price></book>'
    '<book isbn="m1"><title>Moby-Dick</title><author>Melville</author>'
    '<year>1851</year><price>20</price></book>'
    '<book isbn="d2"><title>Vita Nova</title><author>Dante</author><price>8</price></book>'
    '</bib>'
)


@pytest.fixture(autouse=True)
def no_resident_pool():
    """Each test starts and ends without a resident batch pool: workers
    forked by an earlier test would miss this test's monkeypatches (the
    fork-inherited crash and stall injection), and workers left behind
    would outlive the test."""
    pool._retire()
    yield
    pool._retire()


@pytest.fixture(scope="session")
def book_grammar():
    return grammar_from_text(BOOK_DTD, "bib")


@pytest.fixture()
def book_document():
    return parse_document(BOOK_XML)


@pytest.fixture()
def book_interpretation(book_grammar, book_document):
    return validate(book_document, book_grammar)


@pytest.fixture(scope="session")
def xmark():
    """(grammar, document, interpretation) for a small XMark instance."""
    grammar = xmark_grammar()
    document = generate_document(0.0015, seed=7)
    interpretation = validate(document, grammar)
    return grammar, document, interpretation
