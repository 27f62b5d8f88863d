"""Fused fast path vs event pipeline: byte-identical output, identical
stats, identical event streams, identical errors — across chunk
boundaries, misc nodes, CDATA, entities, deep nesting, and single-type
grammars."""

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd.grammar import text_name
from repro.dtd.regex import Atom, Seq, Star
from repro.dtd.singletype import single_type_grammar
from repro.errors import LimitExceeded, ValidationError, XMLSyntaxError
from repro.limits import Limits
from repro.projection.fastpath import _LEAN_TOKEN_RE, _TOKEN_RE, FastPruner, _read_token
from repro.projection.stats import PruneStats
from repro.api import prune
from repro.workloads.randomgen import random_grammar, random_valid_document
from repro.xmltree.lexer import Scanner, is_name_char, is_name_start
from repro.xmltree.parser import _NAME, _NAME_CHAR, _NAME_START, parse_events
from repro.xmltree.serializer import serialize
from tests.conftest import BOOK_XML

_COUNTERS = (
    "elements_in", "elements_out", "attributes_in", "attributes_out",
    "texts_in", "texts_out", "distinct_tags_in", "distinct_tags_out",
)


def _statdict(stats: PruneStats) -> dict:
    return {name: getattr(stats, name) for name in _COUNTERS}


def _both(grammar, xml, projector, chunk_size=1 << 16):
    fast_sink, slow_sink = io.StringIO(), io.StringIO()
    fast_stats = prune(
        io.StringIO(xml), grammar, projector, out=fast_sink,
        fast=True, chunk_size=chunk_size,
    ).stats
    slow_stats = prune(
        io.StringIO(xml), grammar, projector, out=slow_sink,
        fast=False, chunk_size=chunk_size,
    ).stats
    return fast_sink.getvalue(), fast_stats, slow_sink.getvalue(), slow_stats


def assert_paths_agree(grammar, xml, projector, chunk_size=1 << 16):
    fast, fast_stats, slow, slow_stats = _both(grammar, xml, projector, chunk_size)
    assert fast == slow
    assert _statdict(fast_stats) == _statdict(slow_stats)
    assert fast_stats.bytes_out == slow_stats.bytes_out == len(fast)
    return fast


MISC_XML = (
    '<?xml version="1.0"?>\n'
    "<!-- preamble -->\n"
    "<bib><!-- kept region -->"
    '<book isbn="a&amp;b"><title>T&#65;!</title><author>A &lt; B</author>'
    "<!-- inside kept book --><?render fast?></book>"
    '<book isbn="x"><title><![CDATA[]]></title><author>plain</author>'
    "<year>2001</year><price>9</price></book>"
    "</bib>\n<?trailer pi?><!-- done -->"
)


class TestByteParity:
    def test_selective_projector(self, book_grammar):
        projector = book_grammar.projector_closure(["title", text_name("title")])
        pruned = assert_paths_agree(book_grammar, BOOK_XML, projector)
        assert "<title>Divina Commedia</title>" in pruned
        assert "author" not in pruned

    def test_identity_projector(self, book_grammar):
        projector = frozenset(book_grammar.productions)
        assert_paths_agree(book_grammar, BOOK_XML, projector)

    def test_root_only_projector(self, book_grammar):
        assert_paths_agree(book_grammar, BOOK_XML, frozenset({"bib"}))

    def test_misc_cdata_entities(self, book_grammar):
        for names in (["title", text_name("title")],
                      ["title", text_name("title"), "author", text_name("author")],
                      ["bib"]):
            projector = book_grammar.projector_closure(names)
            assert_paths_agree(book_grammar, MISC_XML, projector)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_chunk_boundaries(self, book_grammar, chunk_size):
        """Markup, comments, CDATA and entity references straddling every
        possible chunk edge must not change the output."""
        projector = book_grammar.projector_closure(["title", text_name("title")])
        assert_paths_agree(book_grammar, MISC_XML, projector, chunk_size=chunk_size)

    def test_empty_cdata_blocks_empty_element_collapse(self, book_grammar):
        # Characters("") still separates <title> from </title> in the
        # event serializer; the fast path must reproduce that.
        xml = "<bib><book><title><![CDATA[]]></title><author>a</author></book></bib>"
        projector = book_grammar.projector_closure(["title", text_name("title")])
        pruned = assert_paths_agree(book_grammar, xml, projector)
        assert "<title></title>" in pruned

    def test_deep_nesting(self):
        grammar = single_type_grammar("Doc", {
            "Doc": ("a", Star(Atom("Inner"))),
            "Inner": ("a", Star(Atom("Inner"))),
        })
        depth = 2000
        xml = "<a>" * depth + "</a>" * depth
        assert_paths_agree(grammar, xml, frozenset({"Doc", "Inner"}))

    def test_xmark_document(self, xmark):
        from repro.core.pipeline import analyze

        grammar, document, _ = xmark
        xml = serialize(document)
        projector = analyze(grammar, ["//person/name"]).projector
        assert_paths_agree(grammar, xml, projector)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000),
        st.sampled_from([3, 17, 1 << 16]),
    )
    def test_random_documents(self, grammar_seed, document_seed, selection_seed, chunk_size):
        import random

        grammar = random_grammar(grammar_seed)
        document = random_valid_document(grammar, document_seed)
        rng = random.Random(selection_seed)
        projector = grammar.projector_closure(
            [name for name in sorted(grammar.reachable_names()) if rng.random() < 0.4]
            or [grammar.root]
        ) | {grammar.root}
        assert_paths_agree(grammar, serialize(document), projector, chunk_size=chunk_size)


class TestEventParity:
    def _streams(self, grammar, xml, projector, chunk_size=1 << 16):
        fast = list(FastPruner(grammar, projector).events(io.StringIO(xml), chunk_size))
        slow = list(prune(parse_events(xml), grammar, projector).events)
        return fast, slow

    def test_event_streams_identical(self, book_grammar):
        projector = book_grammar.projector_closure(["title", text_name("title")])
        fast, slow = self._streams(book_grammar, MISC_XML, projector)
        assert fast == slow

    @pytest.mark.parametrize("chunk_size", [1, 5, 1 << 16])
    def test_event_streams_identical_across_chunks(self, book_grammar, chunk_size):
        projector = frozenset(book_grammar.productions)
        fast, slow = self._streams(book_grammar, MISC_XML, projector, chunk_size)
        assert fast == slow

    def test_events_feed_tree_loader(self, book_grammar):
        from repro.engine.loader import load_pruned

        projector = book_grammar.projector_closure(["author", text_name("author")])
        fast = load_pruned(io.StringIO(BOOK_XML), book_grammar, projector, fast=True)
        slow = load_pruned(io.StringIO(BOOK_XML), book_grammar, projector, fast=False)
        assert serialize(fast.document) == serialize(slow.document)
        assert fast.nodes_built == slow.nodes_built
        assert _statdict(fast.prune_stats) == _statdict(slow.prune_stats)


class TestErrorParity:
    BAD_DOCS = [
        "<bib><book><title>t</title></book>",                        # unclosed root
        "<bib><book><title>t</author></book></bib>",                 # mismatched close
        "<bib><book><title>&nope;</title></book></bib>",             # unknown entity
        "<bib><book><title>t<!-- -- --></title></book></bib>",       # -- in comment
        '<bib><book isbn="a" isbn="b"><title>t</title></book></bib>',  # dup attribute
        "<bib></bib><bib></bib>",                                    # two roots
        "<bib></bib>stray",                                          # text after root
        "<bib><book><title><![CDATA[x</title></book></bib>",         # unterminated CDATA
    ]

    @pytest.mark.parametrize("xml", BAD_DOCS)
    def test_syntax_errors_on_both_paths(self, book_grammar, xml):
        # Keep only the root so every error above sits in a *pruned*
        # region for the fast path — it must still be detected.
        projector = frozenset({"bib"})
        with pytest.raises(XMLSyntaxError):
            prune(xml, book_grammar, projector, fast=True)
        with pytest.raises(XMLSyntaxError):
            prune(xml, book_grammar, projector, fast=False)

    def test_undeclared_element(self, book_grammar):
        xml = "<bib><mystery/></bib>"
        for fast in (True, False):
            with pytest.raises(ValidationError, match="mystery"):
                prune(xml, book_grammar, frozenset({"bib"}), fast=fast)


class TestSingleTypeGrammars:
    def _grammar(self):
        # Both shelves hold <item> elements, but under different names —
        # a local-element setup a DTD cannot express.
        return single_type_grammar("Root", {
            "Root": ("library", Seq([Atom("Books"), Atom("Films")])),
            "Books": ("books", Star(Atom("Book"))),
            "Films": ("films", Star(Atom("Film"))),
            "Book": ("item", Seq([Atom("BTitle")])),
            "Film": ("item", Seq([Atom("FTitle")])),
            "BTitle": ("title", Atom("BText")),
            "FTitle": ("title", Atom("FText")),
            "BText": None,
            "FText": None,
        })

    XML = ("<library><books><item><title>b</title></item></books>"
           "<films><item><title>f</title></item></films></library>")

    def test_local_elements_resolved_by_parent(self):
        grammar = self._grammar()
        # Impossible to express with tags alone: keep <item> under the
        # Book interpretation only — resolution must use the parent's
        # name, not the tag.
        projector = frozenset({"Root", "Books", "Films", "Book", "BTitle", "BText"})
        pruned = assert_paths_agree(grammar, self.XML, projector)
        assert pruned == ("<library><books><item><title>b</title></item></books>"
                          "<films/></library>")

    @pytest.mark.parametrize("chunk_size", [1, 4, 1 << 16])
    def test_parity_across_chunks(self, chunk_size):
        grammar = self._grammar()
        xml = ("<library><books><item><title>a&amp;b</title></item></books>"
               "<films><item><title><![CDATA[f]]></title></item></films></library>")
        projector = frozenset({"Root", "Books", "Films", "Film", "FTitle", "FText"})
        assert_paths_agree(grammar, xml, projector, chunk_size=chunk_size)


# -- the token regex's boundaries ---------------------------------------------
#
# The fused scan reads plain text + tag tokens with one regex match and
# hands everything else to the per-construct reader.  These documents sit
# on the seam between the two: entity references, '>' and '<' inside
# attribute values, misc markup in kept and skipped regions, spaced and
# empty-element tags, and (through the chunk sizes) every tag straddling
# a chunk edge.

BOUNDARY_DOCS = {
    "entities": (
        '<bib>\n<book isbn="a&amp;b&#x41;&quot;"><title>T &lt; &#65;x&gt;</title>'
        "<author>A&amp;B</author><year>&#50;001</year></book>\n"
        '<book isbn="&lt;&#38;"><title>&amp;</title><author>x</author></book></bib>'
    ),
    "gt_in_attribute": (
        '<bib><book isbn="x>y"><title>a</title><author>b</author></book>'
        "<book isbn='p>q\"r'><title>c</title><author>d</author></book>"
        '<book isbn=">"><title>e</title><author>f</author></book></bib>'
    ),
    "misc_kept_and_skipped": (
        '<?xml version="1.0"?>\n<!-- head --><?top pi?>\n'
        '<bib><!--c0--><book isbn="1"><?pi one?><title><![CDATA[<raw>&]]>t<!--c1-->u'
        "</title><author>x<?p?>y<!--c2--><![CDATA[]]>z</author>"
        "<year><![CDATA[2001]]></year><price><!--only a comment--></price></book>"
        "<?between?></bib>\n<!-- tail --><?end?>\n"
    ),
    "empty_tags": (
        '<bib><book isbn="z" ><title /><author >a</author ><year/>'
        "<price\n/></book><book\tisbn='q'\n/><book/></bib >"
    ),
    "long_tags_and_lines": (
        "<bib>\n"
        + "".join(
            f'<book  isbn = "{"n" * (i * 5)}{i}"\n  ><title>line {i}\nmore\n</title>'
            f"<author>{'w ' * i}</author></book>\n"
            for i in range(12)
        )
        + "</bib>"
    ),
    "lt_and_whitespace": (
        '\n\t <bib> <book isbn="a<b">\n <title>\n</title> <author> </author>'
        " </book>\n</bib>\n\n"
    ),
    # Runs of plain leaves, each longer than the small chunks, between a
    # reference in text, one in an attribute value, a leaf whose text holds
    # one and a CDATA section holding '&': the scan switches between the
    # lean and the reference regex inside chunks and across them.
    "references_between_plain_runs": (
        "<bib>\n"
        + "".join(
            f'<book isbn="p{i}"><title>plain {i}</title><author>a</author>'
            f"<year>{i}</year></book>\n{special}\n"
            for i, special in enumerate(
                [
                    "<book><title>T &#65;<!--c--></title><author>x</author></book>",
                    '<book isbn="r&amp;s"><title>t</title><author>x</author></book>',
                    "<book><title>t</title><author>A&amp;B &#66;</author></book>",
                    "<book><title><![CDATA[a & b]]></title><author>x</author></book>",
                ]
                * 2
            )
        )
        + "<book><title>end</title><author>z</author></book></bib>"
    ),
}

BOUNDARY_CHUNKS = [*range(1, 18), 1 << 16]

#: The fused scan's refusal with ``max_token_bytes`` one below the longest
#: tag, recorded from the per-construct scanner the token regex replaced.
#: In the misc document a comment and the XML declaration are longer than
#: any tag and trip first.
LIMIT_REFUSALS = {
    "entities": "token_bytes limit exceeded: 31 > 30",
    "gt_in_attribute": "token_bytes limit exceeded: 17 > 16",
    "misc_kept_and_skipped": "token_bytes limit exceeded: 14 > 12",
    "empty_tags": "token_bytes limit exceeded: 15 > 14",
    "long_tags_and_lines": "token_bytes limit exceeded: 75 > 74",
    "lt_and_whitespace": "token_bytes limit exceeded: 15 > 14",
    # Recorded from the fused scan before it had a lean regex.
    "references_between_plain_runs": "token_bytes limit exceeded: 19 > 18",
}
#: A one-character stream reads the XML declaration a character at a time,
#: so the in-loop check trips one character earlier.
LIMIT_REFUSALS_AT_CHUNK_1 = {
    "misc_kept_and_skipped": "token_bytes limit exceeded: 13 > 12",
}

#: Documents whose root element, ``<book>``, a ``{"bib"}`` projector drops:
#: the skip ends on the document's last end tag, and whatever follows it,
#: misc or malformed, is read from there.
DROPPED_ROOT_DOCS = {
    "leaves": "<book><title>t</title><author>a</author></book>",
    "empty_child": "<book><title/></book>",
    "references_and_misc": (
        '<?xml version="1.0"?>\n<!--h--><book isbn="x&amp;y"><title>t &#65;</title>'
        "<author>a</author><year>1</year></book>\n<!--c--><?pi?>\n"
    ),
    "text_after_root": "<book><title>t</title><author>a</author></book>\njunk",
    "second_root": "<book><title>t</title><author>a</author></book><book/>",
}


def _projectors(grammar) -> dict:
    return {
        "skipped": frozenset({"bib"}),
        "title": grammar.projector_closure(["title", text_name("title")]),
        "kept": frozenset(grammar.productions),
    }


def _longest_tag(xml: str) -> int:
    """Characters between '<' and the unquoted '>' of the longest tag."""
    longest = position = 0
    while (start := xml.find("<", position)) != -1:
        end, quote = start + 1, ""
        while xml[end] != ">" or quote:
            if quote and xml[end] == quote:
                quote = ""
            elif not quote and xml[end] in "\"'":
                quote = xml[end]
            end += 1
        if xml[start + 1] not in "!?":
            longest = max(longest, end - start - 1)
        position = end + 1
    return longest


def _event_pipeline(grammar, xml, projector, chunk_size, limits=None):
    sink = io.StringIO()
    stats = prune(
        io.StringIO(xml), grammar, projector, out=sink, fast=False,
        chunk_size=chunk_size, limits=limits,
    ).stats
    return sink.getvalue(), stats


def _outcome(run):
    try:
        return run()
    except (LimitExceeded, ValidationError, XMLSyntaxError) as error:
        return type(error).__name__, str(error)


# Tag bodies for the contract test: well-formed end and start tags with
# whitespace the name alphabet also contains (U+00A0), values holding '>',
# '<' and '&', plus unstructured noise.
_WS = st.text(alphabet=" \t\n\xa0", max_size=2)
_NAMES = st.text(alphabet="ab:_-.9\xe9\xa0", min_size=1, max_size=4)
_ATTRIBUTES = st.builds(
    lambda before, name, around, quote, value: (
        f"{before} {name}{around}={around}{quote}{value.replace(quote, '')}{quote}"
    ),
    _WS, _NAMES, _WS, st.sampled_from("\"'"), st.text(alphabet="ab >'\"<&\n", max_size=4),
)
_TAGS = st.one_of(
    st.builds(lambda name, space: f"/{name}{space}", _NAMES, _WS),
    st.builds(
        lambda name, attributes, space, slash: name + "".join(attributes) + space + slash,
        _NAMES, st.lists(_ATTRIBUTES, max_size=3), _WS, st.sampled_from(["", "/"]),
    ),
    st.text(alphabet="ab:-._=/ \t\n'\"<>&\xa0\xe9", max_size=24),
)


#: The contract test's input: text, a tag body, text, and what follows —
#: the tag's own end tag (with an optional name-character suffix that
#: makes it another element's) or any other tag body.
_CONTRACT_INPUTS = (
    st.text(alphabet="ab \n>'\"", max_size=6),
    _TAGS,
    st.text(alphabet="ab \n>&'", max_size=4),
    st.one_of(st.tuples(st.sampled_from(["", "a", "\xa0"]), _WS), _TAGS),
)


def _contract_xml(text, tag, inner, after):
    if isinstance(after, tuple):
        name = re.match(_NAME, tag)
        suffix, space = after
        after = f"/{name.group() if name else 'a'}{suffix}{space}"
    return f"{text}<{tag}>{inner}<{after}>tail<"


def _assert_token_contract(text, tag, inner, after):
    """The first match :meth:`Scanner.matches` hands the fused loops (the
    lean regex when the input holds no ``&``) consumes exactly what the
    reader reads for the same token, or two for a text-only leaf (its
    start tag, then its text and end tag), with the same names and
    texts; skipping, the reader tells only whether each text is
    non-empty."""
    xml = _contract_xml(text, tag, inner, after)
    match = next(Scanner(xml).matches(_TOKEN_RE, _LEAN_TOKEN_RE), None)
    if match is None:
        return  # a miss: the reader alone decides
    text, closing, tag, attributes, slash, leaf = match.groups()
    for skipping in (False, True):
        scanner = Scanner(xml)
        token = _read_token(scanner, None, 1, not skipping, skipping=skipping)
        assert token[0] == (bool(text) if skipping else text)
        assert token[1:4] == (closing, tag, attributes)
        assert (token[4] or None) == slash
        assert token[5] is None
        if leaf is not None:
            token = _read_token(scanner, None, 2, not skipping, skipping=skipping)
            assert token[0] == (bool(leaf) if skipping else leaf)
            assert token[1:] == (tag, None, None, None, None)
        assert scanner.chars_consumed == match.end()


def _assert_lean_is_reference(text, tag, inner, after):
    """Without ``&``, the lean regex makes the reference regex's matches:
    the same ends and groups, back to back."""
    xml = _contract_xml(text, tag, inner, after).replace("&", "")

    def tokens(pattern):
        return [(match.end(), match.groups()) for match in iter(pattern.scanner(xml).match, None)]

    assert tokens(_LEAN_TOKEN_RE) == tokens(_TOKEN_RE)


class TestTokenRegexContract:
    """The token regexes accept a subset of what the per-construct reader
    accepts, and split it into the same groups."""

    def test_name_classes_are_the_scanner_alphabet(self):
        start, char = re.compile(_NAME_START), re.compile(_NAME_CHAR)
        for c in [*map(chr, range(0x100)), "\u2028", "\ud800", "\U0010ffff"]:
            assert bool(start.fullmatch(c)) == is_name_start(c), repr(c)
            assert bool(char.fullmatch(c)) == is_name_char(c), repr(c)

    @settings(max_examples=500, deadline=None)
    @given(*_CONTRACT_INPUTS)
    def test_every_match_is_what_the_reader_reads(self, text, tag, inner, after):
        _assert_token_contract(text, tag, inner, after)

    @pytest.mark.slow
    @settings(max_examples=20_000, deadline=None)
    @given(*_CONTRACT_INPUTS)
    def test_every_match_is_what_the_reader_reads_at_scale(self, text, tag, inner, after):
        _assert_token_contract(text, tag, inner, after)

    @settings(max_examples=500, deadline=None)
    @given(*_CONTRACT_INPUTS)
    def test_lean_regex_matches_as_the_reference_without_references(
        self, text, tag, inner, after
    ):
        _assert_lean_is_reference(text, tag, inner, after)

    @pytest.mark.slow
    @settings(max_examples=20_000, deadline=None)
    @given(*_CONTRACT_INPUTS)
    def test_lean_regex_matches_as_the_reference_at_scale(self, text, tag, inner, after):
        _assert_lean_is_reference(text, tag, inner, after)


class TestLeanWindows:
    """:meth:`Scanner.matches` serves the lean regex only to a window that
    holds no '&', and looks for the next '&' again once its buffer
    changes, so it always hands out the reference regex's matches."""

    @staticmethod
    def _assert_reference_tokens(scanner):
        served = [match.groups() for match in scanner.matches(_TOKEN_RE, _LEAN_TOKEN_RE)]
        reference = scanner.matches(_TOKEN_RE, _TOKEN_RE)  # the same window
        assert served == [match.groups() for match in reference]

    def test_a_refill_brings_a_reference_into_the_window(self):
        scanner = Scanner(io.StringIO("<a>b</a><c>&#66;</c>"), chunk_size=8)
        scanner.peek()  # one chunk, without '&'
        self._assert_reference_tokens(scanner)
        scanner.consume_to(3)
        scanner.peek_at(16)  # appends the rest and drops nothing
        self._assert_reference_tokens(scanner)

    def test_a_compaction_moves_the_reference(self):
        xml = "<a>bbbbbbbbbb</a><c>&#66;</c><d/><e/>"
        scanner = Scanner(io.StringIO(xml), chunk_size=4)
        scanner.peek_at(31)
        self._assert_reference_tokens(scanner)  # finds the '&' at 20
        scanner.consume_to(17)
        assert scanner.advance() == "<"  # drops the 18 characters consumed
        self._assert_reference_tokens(scanner)


class TestTokenizerBoundaries:
    @pytest.mark.parametrize("chunk_size", BOUNDARY_CHUNKS)
    @pytest.mark.parametrize("name", sorted(BOUNDARY_DOCS))
    def test_write_and_events_match_the_event_pipeline(self, book_grammar, name, chunk_size):
        xml = BOUNDARY_DOCS[name]
        for projector in _projectors(book_grammar).values():
            expected, expected_stats = _event_pipeline(book_grammar, xml, projector, chunk_size)
            stats, sink = PruneStats(), io.StringIO()
            written = FastPruner(book_grammar, projector, stats=stats).write(
                io.StringIO(xml), sink, chunk_size
            )
            assert sink.getvalue() == expected
            assert written == len(expected)
            assert _statdict(stats) == _statdict(expected_stats)

            stats = PruneStats()
            fast = list(FastPruner(book_grammar, projector, stats=stats).events(
                io.StringIO(xml), chunk_size
            ))
            reference = prune(parse_events(xml), book_grammar, projector)
            assert fast == list(reference.events)
            assert _statdict(stats) == _statdict(reference.stats)

    @pytest.mark.parametrize("chunk_size", BOUNDARY_CHUNKS)
    @pytest.mark.parametrize("name", sorted(BOUNDARY_DOCS))
    def test_token_limit_one_below_a_tag(self, book_grammar, name, chunk_size):
        """Both pipelines read a tag as one token with one reader, so the
        facade's fused pass and the event pipeline refuse alike; the
        fused scan itself refuses exactly as before."""
        xml = BOUNDARY_DOCS[name]
        limits = Limits(max_token_bytes=_longest_tag(xml) - 1)
        refusal = LIMIT_REFUSALS[name]
        if chunk_size == 1:
            refusal = LIMIT_REFUSALS_AT_CHUNK_1.get(name, refusal)
        for projector in _projectors(book_grammar).values():

            def facade():
                sink = io.StringIO()
                stats = prune(
                    io.StringIO(xml), book_grammar, projector, out=sink,
                    chunk_size=chunk_size, limits=limits,
                ).stats
                return sink.getvalue(), _statdict(stats)

            def event_pipeline():
                text, stats = _event_pipeline(book_grammar, xml, projector, chunk_size, limits)
                return text, _statdict(stats)

            assert _outcome(facade) == _outcome(event_pipeline)
            for drive in (
                lambda pruner: pruner.write(io.StringIO(xml), io.StringIO(), chunk_size),
                lambda pruner: list(pruner.events(io.StringIO(xml), chunk_size)),
            ):
                pruner = FastPruner(book_grammar, projector, guard=limits.guard())
                with pytest.raises(LimitExceeded) as refused:
                    drive(pruner)
                assert str(refused.value) == refusal

    @pytest.mark.parametrize("chunk_size", BOUNDARY_CHUNKS)
    @pytest.mark.parametrize("name", sorted(DROPPED_ROOT_DOCS))
    def test_a_dropped_root_element(self, book_grammar, name, chunk_size):
        """A document element the projector drops is skipped like any
        subtree; what follows it is read the hard way, from the end of
        its end tag, by both loops."""
        xml = DROPPED_ROOT_DOCS[name]
        projector = frozenset({"bib"})

        def write():
            stats, sink = PruneStats(), io.StringIO()
            written = FastPruner(book_grammar, projector, stats=stats).write(
                io.StringIO(xml), sink, chunk_size
            )
            assert written == len(sink.getvalue())
            return sink.getvalue(), _statdict(stats)

        def event_pipeline():
            text, stats = _event_pipeline(book_grammar, xml, projector, chunk_size)
            return text, _statdict(stats)

        def events():
            stats = PruneStats()
            fast = list(FastPruner(book_grammar, projector, stats=stats).events(
                io.StringIO(xml), chunk_size
            ))
            return fast, _statdict(stats)

        def reference_events():
            reference = prune(parse_events(xml), book_grammar, projector)
            return list(reference.events), _statdict(reference.stats)

        assert _outcome(write) == _outcome(event_pipeline)
        assert _outcome(events) == _outcome(reference_events)


# Malformed inputs and the fused scan's error for each: class, message,
# line and column, recorded from the per-construct scanner the token regex
# replaced.  They run with a 7-character chunk, so most errors fire after
# the scanner has dropped consumed input (the lazy line accounting), and
# with the default 64K chunk, where nothing is dropped.
MALFORMED = {
    "unclosed_root": (
        "<bib>\n<book><title>t</title></book>",
        "unclosed element <bib> (line 2, column 30)",
    ),
    "unclosed_in_skip": (
        "<bib>\n<book><title>t</title><author>x",
        "unclosed element <author> (line 2, column 32)",
    ),
    "mismatched_close": (
        "<bib>\n <book><title>t</author></book></bib>",
        "mismatched closing tag </author>, expected </title> (line 2, column 25)",
    ),
    "mismatched_close_kept": (
        "<bib>\n <book><title>t</title></bib></book>",
        "mismatched closing tag </bib>, expected </book> (line 2, column 30)",
    ),
    "unknown_entity_text": (
        "<bib><book>\n<title>&nope;</title></book></bib>",
        "unknown entity &nope; (line 2, column 14)",
    ),
    "unknown_entity_attribute": (
        '<bib>\n<book isbn="a&nope;"><title>t</title></book></bib>',
        "unknown entity &nope; (line 2, column 22)",
    ),
    "unterminated_entity": (
        "<bib><book><title>a &amp b</title></book></bib>",
        "unexpected end of input looking for ';' in entity reference (line 1, column 48)",
    ),
    "bad_char_ref": (
        "<bib><book><title>&#xZZ;</title></book></bib>",
        "bad character reference &#xZZ; (line 1, column 25)",
    ),
    "dashes_in_comment": (
        "<bib><book><title>t<!-- -- --></title></book></bib>",
        "'--' not allowed inside a comment (line 1, column 31)",
    ),
    "duplicate_attribute": (
        '<bib>\n\n<book isbn="a" isbn="b"><title>t</title></book></bib>',
        "duplicate attribute 'isbn' on <book> (line 3, column 25)",
    ),
    "duplicate_across_lines": (
        '<bib><book\n isbn="a"\n\tisbn="b"\n><title>t</title></book></bib>',
        "duplicate attribute 'isbn' on <book> (line 4, column 2)",
    ),
    "two_roots": (
        "<bib></bib>\n<bib></bib>",
        "multiple root elements (line 2, column 2)",
    ),
    "text_after_root": (
        "<bib></bib>\nstray",
        "character data outside the root element (line 2, column 6)",
    ),
    "unterminated_cdata": (
        "<bib><book><title><![CDATA[x</title></book></bib>",
        "unexpected end of input looking for ']]>' in CDATA section (line 1, column 48)",
    ),
    "unquoted_attribute": (
        "<bib><book isbn=1><title>t</title></book></bib>",
        "malformed start tag <book isbn=1> (line 1, column 19)",
    ),
    "attribute_without_value": (
        "<bib><book isbn><title>t</title></book></bib>",
        "malformed start tag <book isbn> (line 1, column 17)",
    ),
    "malformed_close": (
        "<bib><book><title>t</title></book x></bib>",
        "malformed closing tag </book x> (line 1, column 37)",
    ),
    "long_malformed_close": (
        "<bib><book><title>t</title>\n<author>x</authorxxxxxxxxxxxxxxxxxxxxxxx y>"
        "</book></bib>",
        "malformed closing tag </authorxxxxxxxxxxxxxx> (line 2, column 44)",
    ),
    "space_before_close_name": (
        "<bib><book></ book></bib>",
        "malformed closing tag </ book> (line 1, column 20)",
    ),
    "slash_space": (
        "<bib><book><title/ ></book></bib>",
        "malformed start tag <title/ > (line 1, column 21)",
    ),
    "stray_lt": (
        "<bib><book><title>a < b</title></book></bib>",
        "malformed start tag < b</title> (line 1, column 32)",
    ),
    "doctype_inside": (
        "<bib><book><!DOCTYPE bib></book></bib>",
        "DOCTYPE after the root element (line 1, column 14)",
    ),
    "unknown_declaration": (
        "<bib>\n<book><!FOO></book></bib>",
        "unrecognised markup declaration (line 2, column 9)",
    ),
    "unterminated_pi": (
        "<bib><book><?pi data</book></bib>",
        "unexpected end of input looking for '?>' in processing instruction (line 1, column 33)",
    ),
    "pi_without_target": (
        "<bib><book><? x?></book></bib>",
        "expected processing-instruction target, found ' ' (line 1, column 14)",
    ),
    "cdata_outside_root": (
        "<![CDATA[x]]><bib/>",
        "CDATA section outside the root element (line 1, column 10)",
    ),
    "close_without_open": (
        "</bib>",
        "closing tag </bib> with no open element (line 1, column 7)",
    ),
    "no_root": (
        "  <!-- c -->\n",
        "document has no root element (line 2, column 1)",
    ),
    "eof_in_tag": (
        "<bib><book isbn='1'",
        "unexpected end of input looking for '>' in start tag (line 1, column 20)",
    ),
    "eof_in_value": (
        '<bib><book isbn="1></book></bib>',
        "unexpected end of input looking for '>' in start tag (line 1, column 33)",
    ),
    "lt_at_eof": (
        "<bib><book><",
        "unexpected end of input looking for '>' in start tag (line 1, column 13)",
    ),
    "late_error_after_drops": (
        "<bib>\n"
        + "<book><title>line\nline\n</title><author>a\tb</author></book>\n" * 6
        + "<book><title>ok</title><author>&bad;</author></book></bib>",
        "unknown entity &bad; (line 20, column 37)",
    ),
    "late_mismatch_after_drops": (
        "<bib>\n"
        + '<book isbn="i">\n<title>t</title>\n<author>a</author>\n</book>\n' * 5
        + "<book><title>ok</title></author></book></bib>",
        "mismatched closing tag </author>, expected </book> (line 22, column 33)",
    ),
    # A text-only leaf is one token to the fused scan; its start tag's
    # errors are still reported where that tag ends.
    "duplicate_attribute_on_leaf": (
        '<bib>\n<book><title>t</title><author id="a" id="b">x</author></book></bib>',
        "duplicate attribute 'id' on <author> (line 2, column 45)",
    ),
    "unknown_entity_on_leaf": (
        '<bib>\n<book><title>t</title><author id="a&nope;">x</author></book></bib>',
        "unknown entity &nope; (line 2, column 44)",
    ),
    # White space inside a tag is XML's S, [ \t\r\n]: other white space
    # is part of a name or an error.
    "nbsp_before_attribute": (
        '<bib><book\xa0isbn="1"><title>t</title></book></bib>',
        'malformed start tag <book\xa0isbn="1"> (line 1, column 21)',
    ),
    "form_feed_before_attribute": (
        '<bib><book\x0cisbn="1"><title>t</title></book></bib>',
        'malformed start tag <book\x0cisbn="1"> (line 1, column 21)',
    ),
    "vertical_tab_before_gt": (
        '<bib><book isbn="1"\x0b><title>t</title></book></bib>',
        'malformed start tag <book isbn="1"\x0b> (line 1, column 22)',
    ),
    "form_feed_in_end_tag": (
        "<bib><book><title>t</title\x0c></book></bib>",
        "malformed closing tag </title\x0c> (line 1, column 29)",
    ),
}
#: Unterminated constructs report where the last read stopped, which
#: depends on the chunk size.
MALFORMED_AT_CHUNK_7 = {
    "unterminated_entity":
        "unexpected end of input looking for ';' in entity reference (line 1, column 43)",
    "unterminated_pi":
        "unexpected end of input looking for '?>' in processing instruction (line 1, column 28)",
}


class TestMalformedInputs:
    # Each region reads the <author> leaves another way: kept whole, dropped
    # whole under a kept <book>, or inside a bulk-skipped <book>.  The event
    # pipeline parses every region alike, and shares the fused scan's tag
    # reader, so it reports each error the same way.
    @pytest.mark.parametrize("region", ["kept", "title", "skipped"])
    @pytest.mark.parametrize("chunk_size", [7, 1 << 16])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_error_message_line_and_column(self, book_grammar, name, chunk_size, region):
        xml, message = MALFORMED[name]
        if chunk_size == 7:
            message = MALFORMED_AT_CHUNK_7.get(name, message)
        projector = _projectors(book_grammar)[region]
        for drive in (
            lambda: FastPruner(book_grammar, projector).write(
                io.StringIO(xml), io.StringIO(), chunk_size
            ),
            lambda: list(FastPruner(book_grammar, projector).events(
                io.StringIO(xml), chunk_size
            )),
            lambda: _event_pipeline(book_grammar, xml, projector, chunk_size),
        ):
            with pytest.raises(XMLSyntaxError) as raised:
                drive()
            assert str(raised.value) == message
            assert message.endswith(
                f"(line {raised.value.line}, column {raised.value.column})"
            )

    @pytest.mark.parametrize("chunk_size", [7, 1 << 16])
    def test_undeclared_element(self, book_grammar, chunk_size):
        # Undeclared only where it is looked up: a skipped subtree's
        # elements are checked for well-formedness, not against the grammar.
        xml = "<bib>\n<book><mystery/></book></bib>"
        projectors = _projectors(book_grammar)
        with pytest.raises(ValidationError, match=r"^undeclared element <mystery>$"):
            FastPruner(book_grammar, projectors["kept"]).write(
                io.StringIO(xml), io.StringIO(), chunk_size
            )
        FastPruner(book_grammar, projectors["skipped"]).write(
            io.StringIO(xml), io.StringIO(), chunk_size
        )
