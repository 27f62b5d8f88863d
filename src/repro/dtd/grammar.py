"""Local tree grammars — the paper's semantic view of a DTD (Section 2.2).

A grammar is a pair ``(X, E)``: a distinguished root *name* ``X`` and a set
of productions ``E`` mapping names to either ``a[r]`` (an element with tag
``a`` and content regex ``r`` over names) or ``String`` (a text leaf).
Because element tags determine their content in a DTD (condition 3 of the
definition), we use tags themselves as element names, derive one text name
``tag#text`` per element that may contain character data, and one attribute
name ``tag@att`` per declared attribute.

The per-element text names implement the paper's Section 6 heuristic
verbatim: "rewrite the DTD E so that every name Y defined as Y -> String
occurs exactly once in the right hand side of an edge of E; this enhances
the precision of pruning by reducing the number of conflicts on the leaves
of the tree."

This module also provides the graph machinery the static analysis is built
on: forward reachability ``⇒E`` (Def 2.5), chains, parent maps, and the
type-projector algebra (Def 2.6): the chain-closure test, closure
completion and union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.dtd.ast import (
    AttributeDef,
    ContentKind,
    DTDDocument,
)
from repro.dtd.regex import Alt, Atom, Epsilon, Regex, Star
from repro.errors import GrammarError, ProjectorError

TEXT_SUFFIX = "#text"
ATTRIBUTE_SEPARATOR = "@"


def text_name(tag: str) -> str:
    """The text name associated with elements tagged ``tag``."""
    return tag + TEXT_SUFFIX


def attribute_name(tag: str, attribute: str) -> str:
    """The attribute name for ``attribute`` on elements tagged ``tag``."""
    return tag + ATTRIBUTE_SEPARATOR + attribute


def is_text_name(name: str) -> bool:
    return name.endswith(TEXT_SUFFIX)


def is_attribute_name(name: str) -> bool:
    return ATTRIBUTE_SEPARATOR in name


@dataclass(frozen=True, slots=True)
class ElementProduction:
    """``Y -> tag[regex]`` plus the attributes declared on ``tag``."""

    name: str
    tag: str
    regex: Regex
    attributes: tuple[AttributeDef, ...] = ()

    def attribute_names(self) -> tuple[str, ...]:
        # Keyed by production *name* (== tag for DTDs), so local elements
        # in single-type grammars keep distinct attribute names.
        return tuple(attribute_name(self.name, attr.name) for attr in self.attributes)


@dataclass(frozen=True, slots=True)
class TextProduction:
    """``Y -> String``."""

    name: str


@dataclass(frozen=True, slots=True)
class AttributeProduction:
    """``Y -> String`` for an attribute value (our extension of the paper's
    data model to attributes)."""

    name: str
    owner_tag: str
    attribute: str


Production = ElementProduction | TextProduction | AttributeProduction


class Grammar:
    """A local tree grammar ``(X, E)`` with precomputed graph structure."""

    def __init__(self, root: str, productions: Iterable[Production], require_local: bool = True) -> None:
        self.root = root
        self.productions: dict[str, Production] = {}
        for production in productions:
            if production.name in self.productions:
                raise GrammarError(f"duplicate production for name {production.name!r}")
            self.productions[production.name] = production
        if root not in self.productions:
            raise GrammarError(f"root name {root!r} has no production")

        self._tag_to_name: dict[str, str] = {}
        for production in self.productions.values():
            if isinstance(production, ElementProduction):
                if production.tag in self._tag_to_name:
                    if require_local:
                        raise GrammarError(
                            f"two names define element tag {production.tag!r}; "
                            "a DTD is a *local* tree grammar (one name per tag) — "
                            "use SingleTypeGrammar for XML Schema-style local elements"
                        )
                    continue  # single-type subclasses resolve by context
                self._tag_to_name[production.tag] = production.name

        # successors = the edge relation ⇒E of Def 2.5 (children ∪ attributes).
        self._children: dict[str, frozenset[str]] = {}
        self._attributes: dict[str, frozenset[str]] = {}
        self._successors: dict[str, frozenset[str]] = {}
        for name, production in self.productions.items():
            if isinstance(production, ElementProduction):
                children = production.regex.names()
                attrs = frozenset(production.attribute_names())
            else:
                children = frozenset()
                attrs = frozenset()
            self._children[name] = frozenset(children)
            self._attributes[name] = attrs
            self._successors[name] = frozenset(children) | attrs

        for name, successors in self._successors.items():
            for successor in successors:
                if successor not in self.productions:
                    raise GrammarError(f"production {name!r} references undefined name {successor!r}")

        # parents = the reverse edge relation.
        parents: dict[str, set[str]] = {name: set() for name in self.productions}
        for name, successors in self._successors.items():
            for successor in successors:
                parents[successor].add(name)
        self._parents: dict[str, frozenset[str]] = {
            name: frozenset(values) for name, values in parents.items()
        }

        self._descendant_cache: dict[str, frozenset[str]] = {}
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        # name -> the text name usable for its text children (None if the
        # content model admits no text).  Supports both the per-element
        # text names of the Section 6 heuristic and a shared text name.
        self._text_child: dict[str, str | None] = {}
        for name in self.productions:
            text_children = sorted(
                child
                for child in self._children[name]
                if isinstance(self.productions[child], TextProduction)
            )
            self._text_child[name] = text_children[0] if text_children else None

    # -- basic accessors -------------------------------------------------

    def names(self) -> frozenset[str]:
        """``DN(E)``: the set of defined names."""
        return frozenset(self.productions)

    def production(self, name: str) -> Production:
        try:
            return self.productions[name]
        except KeyError:
            raise GrammarError(f"unknown name {name!r}") from None

    def name_of_tag(self, tag: str) -> str | None:
        """The unique name defining elements tagged ``tag`` (or None)."""
        return self._tag_to_name.get(tag)

    def tag_of(self, name: str) -> str | None:
        production = self.production(name)
        if isinstance(production, ElementProduction):
            return production.tag
        return None

    # -- the edge relation and its closures --------------------------------

    def children_of(self, name: str) -> frozenset[str]:
        """Element and text successor names (the child axis)."""
        return self._children.get(name, frozenset())

    def attributes_of(self, name: str) -> frozenset[str]:
        """Attribute successor names (the attribute axis)."""
        return self._attributes.get(name, frozenset())

    def successors_of(self, name: str) -> frozenset[str]:
        """``{Y | name ⇒E Y}`` — children plus attributes (Def 2.5)."""
        return self._successors.get(name, frozenset())

    def parents_of(self, name: str) -> frozenset[str]:
        """``{Y | Y ⇒E name}``."""
        return self._parents.get(name, frozenset())

    def text_child_of(self, name: str) -> str | None:
        """The text name generated for text children of ``name`` (None if
        its content model admits none)."""
        return self._text_child.get(name)

    def child_element_name(self, parent_name: str | None, tag: str) -> str | None:
        """Resolve the name of a ``tag`` element under ``parent_name``
        (None resolves the document root).  In a *local* grammar the tag
        alone decides; :class:`~repro.dtd.singletype.SingleTypeGrammar`
        overrides this with context-sensitive resolution."""
        return self._tag_to_name.get(tag)

    def descendants_of(self, name: str) -> frozenset[str]:
        """``{Y | name ⇒E+ Y}`` (transitive, not reflexive), cached."""
        cached = self._descendant_cache.get(name)
        if cached is not None:
            return cached
        seen: set[str] = set()
        frontier = list(self._successors.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._successors.get(current, ()))
        result = frozenset(seen)
        self._descendant_cache[name] = result
        return result

    def ancestors_of(self, name: str) -> frozenset[str]:
        """``{Y | Y ⇒E+ name}`` (transitive, not reflexive), cached."""
        cached = self._ancestor_cache.get(name)
        if cached is not None:
            return cached
        seen: set[str] = set()
        frontier = list(self._parents.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._parents.get(current, ()))
        result = frozenset(seen)
        self._ancestor_cache[name] = result
        return result

    def reachable_names(self) -> frozenset[str]:
        """Names reachable from the root (``⇒E*``)."""
        return self.descendants_of(self.root) | {self.root}

    # -- type-projector algebra (Def 2.6) ------------------------------------

    def is_projector(self, names: frozenset[str] | set[str]) -> bool:
        """Whether ``names`` is a type projector: every member must lie on
        a chain from the root whose names are all members too.

        Equivalently: every member is reachable from the root using only
        edges between members."""
        names = frozenset(names)
        if not names:
            return True
        if self.root not in names:
            return False
        unknown = names - self.names()
        if unknown:
            return False
        reachable_within: set[str] = set()
        frontier = [self.root]
        while frontier:
            current = frontier.pop()
            if current in reachable_within:
                continue
            reachable_within.add(current)
            for successor in self._successors.get(current, ()):
                if successor in names and successor not in reachable_within:
                    frontier.append(successor)
        return names <= reachable_within

    def check_projector(self, names: frozenset[str] | set[str]) -> frozenset[str]:
        """Validate and freeze a projector, raising :class:`ProjectorError`
        otherwise."""
        frozen = frozenset(names)
        if not self.is_projector(frozen):
            raise ProjectorError(
                f"{sorted(frozen)} is not chain-closed from root {self.root!r}"
            )
        return frozen

    def projector_closure(self, names: Iterable[str]) -> frozenset[str]:
        """The least projector containing ``names`` and obtained by adding
        ancestors: for each member we add every name on every root chain
        through it.  (Inference never needs this — its outputs are closed
        by construction — but user-assembled projectors do.)"""
        closed: set[str] = set()
        for name in names:
            if name not in self.productions:
                raise GrammarError(f"unknown name {name!r}")
            closed.add(name)
            closed.update(self.ancestors_of(name) & (self.reachable_names()))
        if closed:
            closed.add(self.root)
        return frozenset(closed)

    def union_projectors(self, projectors: Iterable[frozenset[str]]) -> frozenset[str]:
        """Projectors are closed under union (used for bunches of queries)."""
        result: set[str] = set()
        for projector in projectors:
            result |= projector
        return frozenset(result)

    def descendant_closure(self, names: Iterable[str]) -> frozenset[str]:
        """``names ∪ A_E(names, descendant)`` — used by the materialisation
        variant of projector inference (end of Section 4.2)."""
        result: set[str] = set(names)
        for name in list(result):
            result |= self.descendants_of(name)
        return frozenset(result)

    # -- misc -----------------------------------------------------------------

    def text_names(self) -> frozenset[str]:
        return frozenset(
            name for name, production in self.productions.items()
            if isinstance(production, TextProduction)
        )

    def attribute_productions(self) -> frozenset[str]:
        return frozenset(
            name for name, production in self.productions.items()
            if isinstance(production, AttributeProduction)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Grammar(root={self.root!r}, {len(self.productions)} names)"


SHARED_TEXT_NAME = "#text"


def grammar_from_dtd(
    document: DTDDocument,
    root_tag: str,
    per_element_text_names: bool = True,
) -> Grammar:
    """Lower parsed DTD declarations to a local tree grammar rooted at the
    name of ``root_tag``.

    * ``EMPTY``   becomes the regex ``()``;
    * ``(#PCDATA | t1 | ...)*`` becomes ``(tag#text | T1 | ...)*``;
    * ``(#PCDATA)`` becomes ``(tag#text)*``;
    * ``ANY``     becomes ``(tag#text | every element name)*``;
    * children models keep their structure with tags renamed to names.

    ``per_element_text_names`` is the Section 6 precision heuristic
    ("rewrite the DTD so that every name Y -> String occurs exactly once
    in the right hand side of an edge").  Setting it to False uses one
    shared ``#text`` name instead — the pre-heuristic behaviour, exposed
    so the ablation benchmark can measure what the heuristic buys.
    """
    attlists: dict[str, list[AttributeDef]] = {}
    for attlist in document.attlists:
        merged = attlists.setdefault(attlist.tag, [])
        seen = {attr.name for attr in merged}
        for attr in attlist.attributes:
            if attr.name not in seen:  # first declaration wins (XML 1.0)
                merged.append(attr)
                seen.add(attr.name)

    declared_tags = {declaration.tag for declaration in document.elements}
    productions: list[Production] = []
    shared_text_used = False

    for declaration in document.elements:
        tag = declaration.tag
        content = declaration.content
        needs_text = content.allows_text()
        own_text = text_name(tag) if per_element_text_names else SHARED_TEXT_NAME
        if content.kind is ContentKind.EMPTY:
            regex: Regex = Epsilon()
        elif content.kind is ContentKind.ANY:
            alternatives: list[Regex] = [Atom(own_text)]
            alternatives.extend(Atom(other) for other in sorted(declared_tags))
            regex = Star(Alt(alternatives))
        elif content.kind is ContentKind.MIXED:
            alternatives = [Atom(own_text)]
            alternatives.extend(Atom(child) for child in content.mixed_tags)
            regex = Star(Alt(alternatives)) if len(alternatives) > 1 else Star(alternatives[0])
        else:
            assert content.regex is not None
            regex = content.regex  # atoms are tags == names
            _check_referenced_tags(tag, regex, declared_tags)
        attributes = tuple(attlists.get(tag, ()))
        productions.append(ElementProduction(tag, tag, regex, attributes))
        if needs_text:
            if per_element_text_names:
                productions.append(TextProduction(own_text))
            else:
                shared_text_used = True
        for attr in attributes:
            productions.append(AttributeProduction(attribute_name(tag, attr.name), tag, attr.name))

    if shared_text_used:
        productions.append(TextProduction(SHARED_TEXT_NAME))
    if root_tag not in declared_tags:
        raise GrammarError(f"root tag {root_tag!r} is not declared in the DTD")
    return Grammar(root_tag, productions)


def _check_referenced_tags(tag: str, regex: Regex, declared: set[str]) -> None:
    undefined = regex.names() - declared
    if undefined:
        raise GrammarError(
            f"content model of {tag!r} references undeclared element(s) {sorted(undefined)}"
        )


def grammar_from_text(text: str, root_tag: str, per_element_text_names: bool = True) -> Grammar:
    """Convenience: parse DTD text and lower it in one step."""
    from repro.dtd.parser import parse_dtd

    return grammar_from_dtd(parse_dtd(text), root_tag, per_element_text_names)


def grammar_from_productions(root: str, edges: Mapping[str, tuple[str, Regex] | None]) -> Grammar:
    """Build a grammar directly in the paper's notation, for tests and
    examples.  ``edges[Y] = (tag, regex)`` defines ``Y -> tag[regex]``;
    ``edges[Y] = None`` defines ``Y -> String``."""
    productions: list[Production] = []
    for name, edge in edges.items():
        if edge is None:
            productions.append(TextProduction(name))
        else:
            tag, regex = edge
            productions.append(ElementProduction(name, tag, regex))
    return Grammar(root, productions)
