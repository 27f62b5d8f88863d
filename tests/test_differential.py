"""Property-based differential harness over random (DTD, document, query)
triples.

Two families of invariants, checked per random case:

* **pruner agreement** — the fused fast path, the streaming event
  pipeline, and the in-memory tree pruner produce byte-identical markup
  for the same (document, projector);
* **soundness** (the paper's Theorem 4.5) — a query evaluated on the
  pruned document selects exactly the same nodes as on the original.
  The tree pruner preserves ``node_id``\\ s, so the comparison is by
  identity, not by value.

The default run covers ``QUICK_CASES`` seeds and rides in the normal
suite; the full 200-seed sweep is marked ``slow``::

    PYTHONPATH=src python -m pytest tests/test_differential.py -m slow

Seeds are fixed, so failures reproduce exactly; every third seed enables
recursive grammars (the hard case for projector closure).
"""

from __future__ import annotations

import pytest

from repro import Limits, extract, obs, prune
from repro.core.pipeline import analyze
from repro.core.projector import infer_projector
from repro.dtd.validator import validate
from repro.extract.reference import extract_document
from repro.projection.tree import prune_document
from repro.workloads.randomgen import (
    random_extract_spec,
    random_grammar,
    random_pathl,
    random_valid_document,
)
from repro.xmltree.builder import parse_document
from repro.xmltree.parser import parse_events
from repro.xmltree.serializer import serialize
from repro.xpath.xpathl import evaluate_pathl

QUICK_CASES = 25
FULL_CASES = 200


def _case(seed: int):
    """One deterministic (grammar, document, query, projector) quadruple."""
    grammar = random_grammar(seed, allow_recursion=(seed % 3 == 0))
    document = random_valid_document(grammar, seed * 31 + 7)
    pathl = random_pathl(grammar, seed * 13 + 5)
    projector = frozenset(infer_projector(grammar, pathl)) | {grammar.root}
    return grammar, document, pathl, projector


def _node_ids(nodes) -> set:
    return {getattr(node, "node_id", "-root-") for node in nodes}


def check_one(seed: int) -> None:
    grammar, document, pathl, projector = _case(seed)
    markup = serialize(document)

    # -- pruner agreement: fast == streaming == tree, byte for byte ------
    fast = prune(markup, grammar, projector, fast=True).text
    slow = prune(markup, grammar, projector, fast=False).text
    assert fast == slow, f"seed {seed}: fast path diverged from event pipeline"

    # -- limits axis: the governed paths change nothing ------------------
    # Forced fallback exercises the degradation path end to end: it must
    # be byte-identical to the fast path it degrades from.
    forced = prune(markup, grammar, projector, fast=True, fallback="force").text
    assert forced == fast, f"seed {seed}: forced fallback diverged from fast path"
    # Limits(off) must be bit-for-bit the pre-limits pipeline.
    off = prune(markup, grammar, projector, limits=Limits.off()).text
    assert off == fast, f"seed {seed}: Limits.off() changed the output"
    # The strict profile only refuses, never alters: when it accepts the
    # document the output is identical.
    strict = prune(
        markup, grammar, projector, limits=Limits.strict().replace(deadline=None)
    ).text
    assert strict == fast, f"seed {seed}: strict limits changed the output"

    interpretation = validate(document, grammar)
    tree_pruned = prune_document(document, interpretation, projector)
    assert serialize(tree_pruned) == fast, (
        f"seed {seed}: tree pruner diverged from streaming pruners"
    )

    # -- soundness: Q(prune(D)) == Q(D), compared by node identity -------
    expected = _node_ids(evaluate_pathl(document, pathl))
    actual = _node_ids(evaluate_pathl(tree_pruned, pathl))
    assert actual == expected, (
        f"seed {seed}: query answer changed under pruning "
        f"(missing {expected - actual}, extra {actual - expected})"
    )


def check_extract(seed: int) -> None:
    """The extraction analogue of :func:`check_one`: the fused scan, the
    forced event pipeline, the event-iterable source, and the tree-walk
    reference oracle must all agree record for record."""
    grammar = random_grammar(seed, allow_recursion=(seed % 3 == 0))
    document = random_valid_document(grammar, seed * 31 + 7)
    spec = random_extract_spec(grammar, seed * 17 + 3)
    markup = serialize(document)

    fused = extract(markup, grammar, spec)
    forced = extract(markup, grammar, spec, fallback="force")
    assert fused.text == forced.text, (
        f"seed {seed}: fused extraction diverged from the event pipeline"
    )
    assert fused.records == forced.records, f"seed {seed}: records diverged"

    via_events = extract(parse_events(markup), grammar, spec)
    assert via_events.records == fused.records, (
        f"seed {seed}: event-source extraction diverged"
    )

    # -- oracle agreement: extraction never misses what pruning kept ----
    # The reference walks the full unpruned tree; equal records prove the
    # spec's inferred projector discarded nothing the workload needed.
    null = spec.null
    expected = [
        {name: (value if value is not None else null) for name, value in row.items()}
        for row in extract_document(parse_document(markup, strip_whitespace=False), spec)
    ]
    assert fused.records == expected, (
        f"seed {seed}: fused records diverged from the tree-walk reference"
    )

    # -- format axis: CSV carries the same rows as JSONL ----------------
    as_csv = extract(markup, grammar, spec, format="csv")
    assert as_csv.stats.rows_out == fused.stats.rows_out == len(expected), (
        f"seed {seed}: CSV and JSONL row counts diverged"
    )

    # -- limits axis: Limits.off() changes nothing ----------------------
    off = extract(markup, grammar, spec, limits=Limits.off())
    assert off.text == fused.text, f"seed {seed}: Limits.off() changed the output"


def check_static(seed: int) -> None:
    """The static-pre-pass axis: analysis with the satisfiability pre-pass
    enabled vs disabled must prune to byte-identical output — the
    pre-pass may only ever remove *work*, never *bytes*."""
    grammar, document, pathl, _ = _case(seed)
    markup = serialize(document)
    query = str(pathl)

    with_prepass = analyze(grammar, query, static=True)
    without_prepass = analyze(grammar, query, static=False)
    baseline = prune(markup, grammar, without_prepass.projector).text
    filtered = prune(markup, grammar, with_prepass.projector).text
    assert filtered == baseline, (
        f"seed {seed}: the occurrence filter changed the pruned bytes"
    )

    # Passing the analysis itself arms the provably-empty short-circuit;
    # whether or not it fires, the bytes must not move.
    shortcut = prune(markup, grammar, with_prepass).text
    assert shortcut == baseline, (
        f"seed {seed}: the UNSAT short-circuit changed the pruned bytes"
    )

    # Verdict soundness on this concrete case: an UNSAT verdict means the
    # query selects nothing in any valid document, this one included.
    verdict = with_prepass.verdicts[0]
    if not verdict.satisfiable:
        assert evaluate_pathl(document, pathl) == [], (
            f"seed {seed}: UNSAT verdict but the query selected nodes"
        )


def _paired_schema(seed: int) -> tuple[str, str, str]:
    """One random schema, spelled twice: as a DTD and as the equivalent
    Garden-of-Eden XSD.  Returns ``(dtd_text, xsd_text, root)``.

    The shape is deliberately restricted to the intersection of the two
    formalisms — global elements, sequences and binary choices with
    ``?``/``*``/``+`` occurrence, ``#PCDATA`` leaves, ``CDATA``
    attributes — so byte parity of the compiled grammars is a theorem,
    not a coincidence.  A chain ref from each element to the next keeps
    every declaration reachable from the root.
    """
    import random

    rng = random.Random(seed * 1009 + 17)
    count = rng.randint(3, 6)
    names = [f"n{index}" for index in range(count)]
    leaf_cut = max(1, count - 2)

    occ_xsd = {
        "": "",
        "?": ' minOccurs="0"',
        "*": ' minOccurs="0" maxOccurs="unbounded"',
        "+": ' maxOccurs="unbounded"',
    }
    models: dict[str, list] = {}
    referenced: set[str] = set()
    for index, name in enumerate(names[:leaf_cut]):
        pool = names[index + 1:]
        items = [("ref", names[index + 1], rng.choice(["", "?", "*", "+"]))]
        for _ in range(rng.randint(0, 2)):
            occ = rng.choice(["", "?", "*", "+"])
            if len(pool) >= 2 and rng.random() < 0.3:
                items.append(("choice", rng.sample(pool, 2), occ))
            else:
                items.append(("ref", rng.choice(pool), occ))
        models[name] = items
        for kind, target, _ in items:
            referenced.update([target] if kind == "ref" else target)
    # The XSD compiler only emits declarations reachable from the root,
    # so orphaned names would break parity with the keep-everything DTD
    # loader: hang them off the root as optional trailing children.
    for name in names[1:]:
        if name not in referenced:
            models[names[0]].append(("ref", name, "?"))

    dtd_lines, xsd_parts = [], []
    for index, name in enumerate(names):
        if index >= leaf_cut:
            dtd_lines.append(f"<!ELEMENT {name} (#PCDATA)>")
            xsd_parts.append(f'<xs:element name="{name}" type="xs:string"/>')
            continue
        items = models[name]
        dtd_items, xsd_items = [], []
        for kind, target, occ in items:
            if kind == "ref":
                dtd_items.append(f"{target}{occ}")
                xsd_items.append(f'<xs:element ref="{target}"{occ_xsd[occ]}/>')
            else:
                dtd_items.append(f"({target[0]} | {target[1]}){occ}")
                xsd_items.append(
                    f"<xs:choice{occ_xsd[occ]}>"
                    f'<xs:element ref="{target[0]}"/>'
                    f'<xs:element ref="{target[1]}"/>'
                    "</xs:choice>"
                )
        dtd_lines.append(f"<!ELEMENT {name} ({', '.join(dtd_items)})>")
        attribute = ""
        if rng.random() < 0.4:
            # Implied only: random_valid_document never emits attributes,
            # so a required one would make every document invalid.
            dtd_lines.append(f"<!ATTLIST {name} id CDATA #IMPLIED>")
            attribute = '<xs:attribute name="id" type="xs:string"/>'
        xsd_parts.append(
            f'<xs:element name="{name}"><xs:complexType><xs:sequence>'
            f'{"".join(xsd_items)}</xs:sequence>{attribute}'
            "</xs:complexType></xs:element>"
        )
    dtd_text = "\n".join(dtd_lines)
    xsd_text = (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
        + "".join(xsd_parts)
        + "</xs:schema>"
    )
    return dtd_text, xsd_text, names[0]


def check_schema(seed: int) -> None:
    """The schema-front-end axis: the XSD spelling of a random grammar is
    byte-equivalent to its DTD spelling across every pruning path, and
    the dataguide inferred from its documents is order-independent and
    routes strays to the escape hatch, never to wrong bytes."""
    from repro.core.cache import grammar_fingerprint, resolve_projector
    from repro.dtd.grammar import grammar_from_text
    from repro.errors import StrayDocumentError
    from repro.schema import grammar_from_xsd, infer_grammar

    dtd_text, xsd_text, root = _paired_schema(seed)
    dtd_grammar = grammar_from_text(dtd_text, root)
    xsd_grammar = grammar_from_xsd(xsd_text, root)
    assert grammar_fingerprint(xsd_grammar) == grammar_fingerprint(dtd_grammar), (
        f"seed {seed}: XSD and DTD spellings compiled to different grammars"
    )

    document = random_valid_document(dtd_grammar, seed * 31 + 7)
    markup = serialize(document)
    pathl = random_pathl(dtd_grammar, seed * 13 + 5)
    projector = frozenset(infer_projector(xsd_grammar, pathl)) | {root}

    fast = prune(markup, xsd_grammar, projector, fast=True).text
    slow = prune(markup, xsd_grammar, projector, fast=False).text
    via_dtd = prune(markup, dtd_grammar, projector).text
    assert fast == slow == via_dtd, (
        f"seed {seed}: XSD-compiled grammar pruned differently from the DTD"
    )
    interpretation = validate(document, xsd_grammar)
    assert serialize(prune_document(document, interpretation, projector)) == fast, (
        f"seed {seed}: tree pruning under the XSD grammar diverged"
    )

    # -- the dataguide axis ---------------------------------------------
    second = serialize(random_valid_document(dtd_grammar, seed * 97 + 11))
    inferred = infer_grammar([markup, second])
    flipped = infer_grammar([second, markup])
    assert grammar_fingerprint(inferred) == grammar_fingerprint(flipped), (
        f"seed {seed}: dataguide fingerprint depends on ingestion order"
    )
    inferred_projector = resolve_projector(inferred, [str(pathl)])
    assert not prune(markup, inferred, inferred_projector).stray, (
        f"seed {seed}: a sample document strayed from its own dataguide"
    )
    stray_doc = f"<{inferred.root}><zzzstray/></{inferred.root}>"
    with pytest.raises(StrayDocumentError):
        prune(stray_doc, inferred, inferred_projector)
    lax = infer_grammar([markup, second], on_stray="copy")
    copied = prune(stray_doc, lax, resolve_projector(lax, [str(pathl)]))
    assert copied.stray and copied.text == stray_doc, (
        f"seed {seed}: the copy policy did not pass the stray through verbatim"
    )


@pytest.mark.parametrize("seed", range(QUICK_CASES))
def test_differential_quick(seed):
    check_one(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(QUICK_CASES, FULL_CASES))
def test_differential_full(seed):
    check_one(seed)


@pytest.mark.parametrize("seed", range(QUICK_CASES))
def test_differential_extract_quick(seed):
    check_extract(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(QUICK_CASES, FULL_CASES))
def test_differential_extract_full(seed):
    check_extract(seed)


@pytest.mark.parametrize("seed", range(QUICK_CASES))
def test_differential_static_quick(seed):
    check_static(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(QUICK_CASES, FULL_CASES))
def test_differential_static_full(seed):
    check_static(seed)


@pytest.mark.parametrize("seed", range(QUICK_CASES))
def test_differential_schema_quick(seed):
    check_schema(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(QUICK_CASES, FULL_CASES))
def test_differential_schema_full(seed):
    check_schema(seed)


def _run_ledger_axis(seeds, tmp_path):
    """The ledger axis: every seeded prune/extract run is recorded into
    one shared attestation ledger, dedup hits return *identical* bytes,
    records and stats to the fresh run, and a full replay re-attests
    every entry (Thm 4.5 byte-identity, promoted to a runtime contract).

    Seeds can generate the same (grammar, document, workload) as an
    earlier seed — several produce the trivial ``<n0/>`` under ``{n0}``.
    Such a recording run is a dedup hit on the earlier entry and appends
    nothing, so the expected entries are counted by distinct key, and a
    recording run that appends nothing must have been served as a hit
    with identical bytes and stats.  Returns what the corruption test
    needs to poke at the recorded state.
    """
    from repro.ledger import Ledger, replay_ledger

    led_path = str(tmp_path / "ledger.jsonl")
    grammars = []
    keys: set = set()
    with Ledger(led_path) as ledger:

        def record(run, what):
            """Run a recording call; returns whether it appended an entry
            (a new key) or was served from an earlier one (a hit)."""
            appended, hits = ledger.appended, ledger.hits
            result = run()
            if ledger.appended == appended + 1:
                key = ledger.entries[-1].key
                assert key not in keys, f"{what}: appended a duplicate key"
                keys.add(key)
                return result, True
            assert ledger.appended == appended
            if ledger.hits == hits + 1:
                return result, False
            return result, None  # neither: not recordable (short-circuited)

        for seed in seeds:
            grammar, document, _, projector = _case(seed)
            grammars.append(grammar)
            doc_path = str(tmp_path / f"doc-{seed}.xml")
            with open(doc_path, "w", encoding="utf-8") as handle:
                handle.write(serialize(document))

            fresh = prune(doc_path, grammar, projector)
            recorded, appended = record(
                lambda: prune(doc_path, grammar, projector, ledger=ledger),
                f"seed {seed} prune",
            )
            assert appended is not None, (
                f"seed {seed}: recording prune neither appended nor hit"
            )
            assert recorded.text == fresh.text, (
                f"seed {seed}: recording prune returned different bytes"
            )
            assert recorded.stats == fresh.stats, (
                f"seed {seed}: recording prune returned different stats"
            )
            hits_before = ledger.hits
            served = prune(doc_path, grammar, projector, ledger=ledger)
            assert ledger.hits == hits_before + 1, (
                f"seed {seed}: identical re-prune was not dedup-served"
            )
            assert served.text == recorded.text == fresh.text, (
                f"seed {seed}: dedup hit returned different bytes"
            )
            assert served.stats == recorded.stats == fresh.stats, (
                f"seed {seed}: dedup hit returned different stats"
            )

            spec = random_extract_spec(grammar, seed * 17 + 3)
            efresh = extract(doc_path, grammar, spec)
            erecorded, appended = record(
                lambda: extract(doc_path, grammar, spec, ledger=ledger),
                f"seed {seed} extract",
            )
            if appended is None:
                # Statically short-circuited: nothing scanned, nothing to
                # attest — the result must still match the fresh run.
                assert erecorded.text == efresh.text
                continue
            assert erecorded.text == efresh.text, (
                f"seed {seed}: recording extract returned different bytes"
            )
            assert erecorded.records == efresh.records, (
                f"seed {seed}: recording extract returned different records"
            )
            assert erecorded.stats == efresh.stats, (
                f"seed {seed}: recording extract returned different stats"
            )
            hits_before = ledger.hits
            eserved = extract(doc_path, grammar, spec, ledger=ledger)
            assert ledger.hits == hits_before + 1, (
                f"seed {seed}: identical re-extract was not dedup-served"
            )
            assert eserved.text == erecorded.text == efresh.text, (
                f"seed {seed}: extract dedup hit returned different bytes"
            )
            assert eserved.records == erecorded.records == efresh.records, (
                f"seed {seed}: extract dedup hit returned different records"
            )
            assert eserved.stats == erecorded.stats == efresh.stats, (
                f"seed {seed}: extract dedup hit returned different stats"
            )

        assert len(ledger) == ledger.appended == len(keys)
        report = replay_ledger(ledger, grammars=grammars, jobs=2)
    assert report.total == len(keys)
    assert report.ok and report.attested == report.total, (
        f"replay did not attest 100%: {report.as_dict()}"
    )
    return led_path, grammars


def test_differential_ledger_quick(tmp_path):
    _run_ledger_axis(range(QUICK_CASES), tmp_path)


@pytest.mark.slow
def test_differential_ledger_full(tmp_path):
    _run_ledger_axis(range(QUICK_CASES, FULL_CASES), tmp_path)


def test_differential_ledger_detects_corruption(tmp_path):
    """Flip one byte of one recorded output: replay must report exactly
    that entry as divergent and every other entry as attested."""
    import json
    import os

    from repro.ledger import Ledger, replay_ledger

    led_path, grammars = _run_ledger_axis(range(4), tmp_path)
    with Ledger(led_path, fsync=False) as ledger:
        victim = ledger.entries[1]
        blob_path = os.path.join(
            led_path + ".store", victim.output_hash + ".json"
        )
        with open(blob_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        text = payload["text"]
        flipped = chr(ord(text[-1]) ^ 1)
        payload["text"] = text[:-1] + flipped
        with open(blob_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        report = replay_ledger(ledger, grammars=grammars, jobs=2)
    assert not report.ok
    assert [item.seq for item in report.divergent] == [victim.seq]
    assert report.attested == report.total - 1
    assert "stored result" in report.divergent[0].reason


def test_projector_is_valid_projector():
    """The inferred-and-rooted set used by every case really is a
    projector (closed under the grammar's chain relation)."""
    for seed in range(QUICK_CASES):
        grammar, _, _, projector = _case(seed)
        assert grammar.check_projector(projector) == projector


def test_differential_harness_traces_cleanly():
    """The harness runs identically under a live tracer (guards against
    obs-only code paths diverging)."""
    with obs.capture() as sink:
        check_one(1)
    assert sink.spans("prune")
