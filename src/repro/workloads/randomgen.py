"""Random grammars, documents and paths for property-based testing.

The soundness theorems quantify over *all* valid documents and paths;
the test suite approximates that with seeded random sampling (driven by
hypothesis where the shrinking is useful, plain ``random.Random``
otherwise).  Everything here is deterministic in the seed.
"""

from __future__ import annotations

import random

from repro.dtd.grammar import (
    ElementProduction,
    Grammar,
    TextProduction,
    text_name,
)
from repro.dtd.regex import Alt, Atom, Epsilon, Opt, Plus, Regex, Seq, Star
from repro.xmltree.nodes import Document, Element, Text
from repro.xpath.ast import Axis, KindTest, NameTest
from repro.xpath.xpathl import LStep, PathL, SimplePath


def random_grammar(
    seed: int,
    max_names: int = 8,
    star_guarded_only: bool = False,
    allow_recursion: bool = False,
) -> Grammar:
    """A random local tree grammar rooted at ``n0``.

    By default productions only reference strictly higher-numbered names,
    making the grammar non-recursive; ``allow_recursion`` adds star-guarded
    back edges (so finite documents always exist).
    """
    rng = random.Random(seed)
    count = rng.randint(2, max_names)
    names = [f"n{i}" for i in range(count)]
    productions: list = []
    for index, name in enumerate(names):
        forward = names[index + 1 :]
        has_text = rng.random() < 0.4 or not forward
        children: list[Regex] = []
        if forward:
            for _ in range(rng.randint(0, min(3, len(forward)))):
                child = rng.choice(forward)
                children.append(_decorate(rng, Atom(child), star_guarded_only))
        if allow_recursion and index > 0 and rng.random() < 0.3:
            # A back edge, always starred so documents stay finite.
            children.append(Star(Atom(rng.choice(names[: index + 1]))))
        if has_text:
            children.append(Star(Atom(text_name(name))))
        if not children:
            regex: Regex = Epsilon()
        elif len(children) == 1:
            regex = children[0]
        elif rng.random() < 0.3 and not star_guarded_only:
            regex = Alt(children)
        elif rng.random() < 0.3:
            regex = Star(Alt(children))
        else:
            regex = Seq(children)
        productions.append(ElementProduction(name, name, regex))
        if has_text:
            productions.append(TextProduction(text_name(name)))
    return Grammar("n0", productions)


def _decorate(rng: random.Random, regex: Regex, star_guarded_only: bool) -> Regex:
    roll = rng.random()
    if roll < 0.25:
        return Star(regex)
    if roll < 0.4:
        return Plus(regex)
    if roll < 0.6 and not star_guarded_only:
        return Opt(regex)
    return regex


def random_valid_document(
    grammar: Grammar, seed: int, max_depth: int = 24, max_nodes: int = 400
) -> Document:
    """Sample a document valid w.r.t. ``grammar`` by walking production
    regexes and sampling each combinator.  Two brakes keep recursive
    grammars finite *and small*: beyond ``max_depth`` sampling prefers
    nullable branches (bounds depth), and beyond ``max_nodes`` it does so
    everywhere (bounds width — unbraked, branching^depth explodes)."""
    rng = random.Random(seed)
    budget = [max_nodes]

    def build(name: str, depth: int) -> Element | Text:
        budget[0] -= 1
        production = grammar.production(name)
        if isinstance(production, TextProduction):
            return Text(f"t{rng.randint(0, 99)}")
        assert isinstance(production, ElementProduction)
        element = Element(production.tag)
        shallow = depth >= max_depth or budget[0] <= 0
        for child_name in _sample_regex(rng, production.regex, shallow):
            element.append(build(child_name, depth + 1))
        return element

    root = build(grammar.root, 0)
    assert isinstance(root, Element)
    return Document(root)


def _sample_regex(rng: random.Random, regex: Regex, shallow: bool) -> list[str]:
    if isinstance(regex, Epsilon):
        return []
    if isinstance(regex, Atom):
        return [regex.name]
    if isinstance(regex, Seq):
        result: list[str] = []
        for item in regex.items:
            result.extend(_sample_regex(rng, item, shallow))
        return result
    if isinstance(regex, Alt):
        choices = list(regex.items)
        if shallow:
            # Prefer nullable branches near the depth bound.
            nullable = [item for item in choices if item.nullable()]
            if nullable:
                choices = nullable
        return _sample_regex(rng, rng.choice(choices), shallow)
    if isinstance(regex, Star):
        repeats = 0 if shallow else rng.randint(0, 2)
        result = []
        for _ in range(repeats):
            result.extend(_sample_regex(rng, regex.inner, shallow))
        return result
    if isinstance(regex, Plus):
        repeats = 1 if shallow else rng.randint(1, 2)
        result = []
        for _ in range(repeats):
            result.extend(_sample_regex(rng, regex.inner, shallow))
        return result
    if isinstance(regex, Opt):
        if shallow or rng.random() < 0.5:
            return []
        return _sample_regex(rng, regex.inner, shallow)
    raise TypeError(f"unknown regex node {regex!r}")


def random_single_type_grammar(seed: int, max_names: int = 8):
    """A random *single-type* grammar (XML Schema class): like
    :func:`random_grammar` but tags are drawn from a small pool so
    distinct names regularly share a tag (local elements), while the
    single-type restriction (no two same-tag names in one content model)
    is enforced by construction."""
    from repro.dtd.singletype import SingleTypeGrammar

    rng = random.Random(seed)
    count = rng.randint(3, max_names)
    names = [f"n{i}" for i in range(count)]
    # Tag pool half the size of the name pool forces sharing.
    tags = [f"t{i}" for i in range(max(2, count // 2))]
    assigned = {name: rng.choice(tags) for name in names}
    assigned[names[0]] = "root"
    productions: list = []
    for index, name in enumerate(names):
        forward = names[index + 1 :]
        has_text = rng.random() < 0.4 or not forward
        children: list[Regex] = []
        used_tags: set[str] = set()
        if forward:
            for _ in range(rng.randint(0, min(3, len(forward)))):
                child = rng.choice(forward)
                if assigned[child] in used_tags:
                    continue  # single-type: one name per tag per model
                used_tags.add(assigned[child])
                children.append(_decorate(rng, Atom(child), False))
        if has_text:
            children.append(Star(Atom(text_name(name))))
        if not children:
            regex: Regex = Epsilon()
        elif len(children) == 1:
            regex = children[0]
        else:
            regex = Seq(children)
        productions.append(ElementProduction(name, assigned[name], regex))
        if has_text:
            productions.append(TextProduction(text_name(name)))
    return SingleTypeGrammar(names[0], productions)


_PATH_AXES = (
    Axis.CHILD,
    Axis.DESCENDANT,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.SELF,
    Axis.DESCENDANT_OR_SELF,
    Axis.ANCESTOR_OR_SELF,
)


def random_pathl(grammar: Grammar, seed: int, max_steps: int = 4, with_conditions: bool = True) -> PathL:
    """A random XPathℓ path whose name tests are drawn from the grammar's
    tags (so paths have a fighting chance of selecting something)."""
    rng = random.Random(seed)
    tags = sorted(
        production.tag
        for production in grammar.productions.values()
        if isinstance(production, ElementProduction)
    )
    steps = [_random_step(rng, tags, with_conditions)]
    for _ in range(rng.randint(0, max_steps - 1)):
        steps.append(_random_step(rng, tags, with_conditions))
    return PathL(tuple(steps))


def _random_step(rng: random.Random, tags: list[str], with_conditions: bool) -> LStep:
    axis = rng.choice(_PATH_AXES)
    roll = rng.random()
    if roll < 0.45 and tags:
        test = NameTest(rng.choice(tags))
    elif roll < 0.6:
        test = KindTest("text")
    else:
        test = KindTest("node")
    condition = None
    if with_conditions and rng.random() < 0.3:
        disjuncts = []
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(1, 2)
            simple_steps = []
            for _ in range(length):
                saxis = rng.choice((Axis.CHILD, Axis.DESCENDANT, Axis.PARENT, Axis.SELF))
                if rng.random() < 0.5 and tags:
                    stest = NameTest(rng.choice(tags))
                else:
                    stest = KindTest("node")
                simple_steps.append(LStep(saxis, stest))
            disjuncts.append(SimplePath(tuple(simple_steps)))
        condition = tuple(disjuncts)
    return LStep(axis, test, condition)


def random_extract_spec(grammar: Grammar, seed: int):
    """A random :class:`~repro.extract.spec.ExtractSpec` over ``grammar``.

    The row path follows a random parent-child chain of element tags
    from the root; each field is a short row-relative chain ending in
    ``text()`` or a string-value step.  Random grammars declare no
    attributes, so ``@attr`` fields never arise here — the attribute
    path is covered by the fixture-based extract tests instead.

    Empty results are deliberately in scope: a chain the sampled
    document never instantiates must yield zero rows (or NULL fields)
    identically on every extraction path.
    """
    from repro.extract.spec import ExtractSpec

    rng = random.Random(seed)

    def element_children(name: str) -> list[str]:
        return sorted(
            child for child in grammar.children_of(name)
            if grammar.tag_of(child) is not None
        )

    chain = [grammar.root]
    for _ in range(rng.randint(0, 2)):
        options = element_children(chain[-1])
        if not options:
            break
        chain.append(rng.choice(options))
    rows = "/" + "/".join(grammar.tag_of(name) or name for name in chain)

    fields: dict[str, str] = {}
    for index in range(rng.randint(1, 3)):
        steps: list[str] = []
        name = chain[-1]
        for _ in range(rng.randint(0, 2)):
            options = element_children(name)
            if not options:
                break
            name = rng.choice(options)
            steps.append(grammar.tag_of(name) or name)
        if steps and rng.random() < 0.45:
            path = "/".join(steps)  # string value of the element
        else:
            path = "/".join(steps + ["text()"])
        fields[f"f{index}"] = path
    null = rng.choice([None, "", "NULL"])
    return ExtractSpec(rows=rows, fields=fields, null=null)
