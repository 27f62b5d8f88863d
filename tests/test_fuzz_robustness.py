"""Fuzz battery: seeded hostile input against the governed pipeline.

The contract under test is the robustness guarantee of the resource
governance layer: for *any* input — well-formed or garbage — a prune call
under :meth:`Limits.strict` terminates promptly and either

* returns a clean :class:`~repro.api.PruneResult`, or
* raises a structured :class:`~repro.errors.ReproError` subclass.

Never an uncaught exception, never a hang, never a partial output file.

Each seed deterministically builds a small valid bibliography and then
applies one to three hostile mutations drawn from a catalogue of attack
shapes: pathological nesting, megabyte attribute values, dropped or
swapped closing tags, truncation at an arbitrary byte, NUL and control
characters, BOMs and lone surrogates, attribute floods, unterminated
comment/CDATA/PI constructs, and raw garbage runs.  Sources are fed as
streams so even inputs that look like file paths cannot escape into
filesystem dispatch.

The default run covers 50 seeds (x fast/event path) and rides in the
normal suite; the 500-seed sweep is marked ``slow``::

    PYTHONPATH=src python -m pytest tests/test_fuzz_robustness.py -m slow
"""

from __future__ import annotations

import io
import random
import time

import pytest

from repro import Limits, prune
from repro.api import PruneResult
from repro.dtd.grammar import grammar_from_text
from repro.errors import ReproError

QUICK_SEEDS = 50
FULL_SEEDS = 500

#: Strict profile with a real (but test-friendly) wall-clock budget.
LIMITS = Limits.strict().replace(deadline=5.0)

#: Hard per-case hang guard, well above the governed deadline.
WALL_SECONDS = 30.0

DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author*, year?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ATTLIST book id CDATA #IMPLIED>
"""

GRAMMAR = grammar_from_text(DTD, "bib")
PROJECTOR = frozenset({"bib", "book", "title"})


# -- hostile-document generator ------------------------------------------------


def _valid_base(rng: random.Random) -> str:
    books = []
    for i in range(rng.randint(0, 8)):
        authors = "".join(
            f"<author>a{rng.randint(0, 99)}</author>" for _ in range(rng.randint(0, 3))
        )
        books.append(
            f'<book id="b{i}"><title>t{rng.randint(0, 999)}</title>'
            f"{authors}<year>{rng.randint(1900, 2026)}</year></book>"
        )
    return "<bib>" + "".join(books) + "</bib>"


def _mut_deep_nesting(rng: random.Random, doc: str) -> str:
    depth = rng.randint(100, 4000)
    closes = rng.choice((depth, depth - 1, depth // 2, 0))
    return doc[:-6] + "<book>" * depth + "</book>" * closes + "</bib>"


def _mut_giant_attribute(rng: random.Random, doc: str) -> str:
    value = "x" * ((1 << 20) + rng.randint(1, 4096))
    return doc.replace("<bib>", f'<bib junk="{value}">', 1)


def _mut_attribute_flood(rng: random.Random, doc: str) -> str:
    attrs = " ".join(f'a{i}="v{i}"' for i in range(rng.randint(50, 400)))
    return doc.replace("<bib>", f"<bib {attrs}>", 1)


def _mut_giant_text(rng: random.Random, doc: str) -> str:
    blob = rng.choice(("y", "&amp;", "<![CDATA[z]]>")) * rng.randint(1000, 5000)
    return doc[:-6] + f"<book><title>{blob}</title></book>" + "</bib>"


def _mut_drop_close(rng: random.Random, doc: str) -> str:
    closes = [i for i in range(len(doc)) if doc.startswith("</", i)]
    if not closes:
        return doc
    start = rng.choice(closes)
    end = doc.find(">", start)
    return doc[:start] + doc[end + 1 :] if end != -1 else doc[:start]


def _mut_swap_tags(rng: random.Random, doc: str) -> str:
    a, b = "</title>", "</book>"
    if a in doc and b in doc:
        sentinel = "\x00SWAP\x00"
        doc = doc.replace(a, sentinel, 1).replace(b, a, 1).replace(sentinel, b, 1)
    return doc


def _mut_truncate(rng: random.Random, doc: str) -> str:
    return doc[: rng.randint(0, len(doc))]


def _mut_control_bytes(rng: random.Random, doc: str) -> str:
    for _ in range(rng.randint(1, 8)):
        pos = rng.randint(0, len(doc))
        doc = doc[:pos] + rng.choice("\x00\x01\x08\x0b\x1f\x7f") + doc[pos:]
    return doc


def _mut_weird_unicode(rng: random.Random, doc: str) -> str:
    pos = rng.randint(0, len(doc))
    glyph = rng.choice(("\ufeff", "\ud800", "\udfff", "\U0001f600", "\ufffe"))
    return doc[:pos] + glyph + doc[pos:]


def _mut_unterminated(rng: random.Random, doc: str) -> str:
    tail = rng.choice(("<!--", "<![CDATA[", "<?pi ", "<book", "</", "<", "<!DOCT"))
    return doc + tail


def _mut_garbage(rng: random.Random, doc: str) -> str:
    run = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(5, 80)))
    pos = rng.randint(0, len(doc))
    return doc[:pos] + run + doc[pos:]


def _mut_unknown_tags(rng: random.Random, doc: str) -> str:
    return doc[:-6] + "<mystery><deep>?</deep></mystery>" + "</bib>"


MUTATIONS = (
    _mut_deep_nesting,
    _mut_giant_attribute,
    _mut_attribute_flood,
    _mut_giant_text,
    _mut_drop_close,
    _mut_swap_tags,
    _mut_truncate,
    _mut_control_bytes,
    _mut_weird_unicode,
    _mut_unterminated,
    _mut_garbage,
    _mut_unknown_tags,
)


def hostile_case(seed: int) -> tuple[str, list[str]]:
    """Deterministic hostile document for ``seed`` plus the names of the
    mutations that produced it (for failure triage)."""
    rng = random.Random(seed)
    doc = _valid_base(rng)
    applied = []
    for _ in range(rng.randint(1, 3)):
        mutate = rng.choice(MUTATIONS)
        applied.append(mutate.__name__)
        doc = mutate(rng, doc)
    return doc, applied


def hostile_document(seed: int) -> str:
    return hostile_case(seed)[0]


# -- the contract --------------------------------------------------------------


def _assert_contract(seed: int, fast: bool) -> None:
    doc, applied = hostile_case(seed)
    started = time.monotonic()
    try:
        result = prune(
            io.StringIO(doc),
            GRAMMAR,
            PROJECTOR,
            fast=fast,
            limits=LIMITS,
        )
    except ReproError:
        pass  # structured refusal: a clean outcome
    else:
        assert isinstance(result, PruneResult), (
            f"seed {seed} ({applied}): prune returned {type(result).__name__}"
        )
        assert isinstance(result.text, str)
    elapsed = time.monotonic() - started
    assert elapsed < WALL_SECONDS, (
        f"seed {seed} ({applied}): took {elapsed:.1f}s "
        f"(deadline {LIMITS.deadline}s ignored?)"
    )


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "events"])
@pytest.mark.parametrize("seed", range(QUICK_SEEDS))
def test_fuzz_quick(seed, fast):
    _assert_contract(seed, fast)


@pytest.mark.slow
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "events"])
@pytest.mark.parametrize("seed", range(QUICK_SEEDS, FULL_SEEDS))
def test_fuzz_full(seed, fast):
    _assert_contract(seed, fast)


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_no_partial_output_file(seed, tmp_path):
    """A refused prune must not leave a partial output file behind."""
    doc = hostile_document(seed)
    out = tmp_path / f"out-{seed}.xml"
    try:
        prune(io.StringIO(doc), GRAMMAR, PROJECTOR, out=str(out), limits=LIMITS)
    except ReproError:
        assert not out.exists(), f"seed {seed}: partial output left on refusal"
    else:
        assert out.exists()


#: Inputs that turn the fused scan's fallback reader quadratic unless it
#: keeps its searches instead of re-searching the rest of the buffer after
#: every quoted value or entity reference: a start tag with 200k attributes
#: and no '>', and a text node with 200k references, kept and skipped.
#: Linear, each takes well under a second; quadratic, several.
LINEAR_SECONDS = 2.0
REFERENCES = "&amp;and_x" * 200_000


def _linear_case(name: str) -> str:
    if name == "attribute_flood_without_gt":
        return "<bib><book" + "".join(f' a{i}="v"' for i in range(200_000))
    if name == "references_in_kept_text":
        return f"<bib><book><title>{REFERENCES}</title></book></bib>"
    return f"<bib><book><title>t</title><author>{REFERENCES}</author></book></bib>"


@pytest.mark.parametrize(
    "name",
    ["attribute_flood_without_gt", "references_in_kept_text", "references_in_skipped_text"],
)
def test_fallback_reader_is_linear(name):
    doc = _linear_case(name)
    started = time.monotonic()
    try:
        prune(doc, GRAMMAR, PROJECTOR)
    except ReproError:
        pass
    elapsed = time.monotonic() - started
    assert elapsed < LINEAR_SECONDS, f"{name}: took {elapsed:.1f}s"


def test_generator_is_deterministic():
    assert hostile_document(7) == hostile_document(7)


def test_generator_covers_every_mutation():
    """Sanity: across the quick seed range, every attack shape fires."""
    fired = set()
    for seed in range(QUICK_SEEDS):
        fired.update(hostile_case(seed)[1])
    assert fired == {m.__name__ for m in MUTATIONS}
