"""Validation of documents against a local tree grammar (Def 2.4).

Validation produces the *interpretation* ``ℑ : Ids(t) → DN(E)`` as a side
effect — exactly what the type-driven projection of Def 2.7 consumes.  For
a DTD (a *local* tree grammar) the interpretation is unique because the
element tag determines the name; the validator therefore only has to check
content models and report the mapping.

Two validators are provided:

* :class:`TreeValidator` over in-memory documents, returning an
  :class:`Interpretation`;
* :class:`EventValidator` over the parser's event stream, used by the
  combined validate-and-prune pass of :mod:`repro.projection.streaming`
  ("pruning can be executed during parsing and/or validation and brings no
  overhead", Section 1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtd.automaton import GlushkovAutomaton
from repro.dtd.grammar import (
    AttributeProduction,
    ElementProduction,
    Grammar,
    TextProduction,
    text_name,
)
from repro.errors import ValidationError
from repro.xmltree.events import Characters, EndElement, Event, StartElement
from repro.xmltree.nodes import Document, Element, Node, Text


@dataclass(slots=True)
class Interpretation:
    """The mapping ``ℑ`` from node identifiers to grammar names."""

    grammar: Grammar
    names: dict[int, str]

    def __getitem__(self, node_id: int) -> str:
        return self.names[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.names


class _AutomatonCache:
    """One compiled Glushkov automaton per element production, shared by
    both validators and built lazily."""

    __slots__ = ("_grammar", "_automata")

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar
        self._automata: dict[str, GlushkovAutomaton] = {}

    def automaton(self, name: str) -> GlushkovAutomaton:
        automaton = self._automata.get(name)
        if automaton is None:
            production = self._grammar.production(name)
            assert isinstance(production, ElementProduction)
            automaton = GlushkovAutomaton(production.regex)
            self._automata[name] = automaton
        return automaton


class TreeValidator:
    """Validate an in-memory document, producing the interpretation.

    ``ignore_whitespace`` controls whether whitespace-only text in
    element-only content is ignorable (the standard behaviour for
    pretty-printed documents) or a validation error.
    """

    def __init__(self, grammar: Grammar, ignore_whitespace: bool = True, check_attributes: bool = True) -> None:
        self._grammar = grammar
        self._ignore_whitespace = ignore_whitespace
        self._check_attributes = check_attributes
        self._automata = _AutomatonCache(grammar)

    def validate(self, document: Document) -> Interpretation:
        grammar = self._grammar
        root_production = grammar.production(grammar.root)
        if not isinstance(root_production, ElementProduction):
            raise ValidationError(f"root name {grammar.root!r} is not an element production")
        if document.root.tag != root_production.tag:
            raise ValidationError(
                f"root element is <{document.root.tag}>, expected <{root_production.tag}>",
                document.root.node_id,
            )
        names: dict[int, str] = {}
        # Iterative DFS; children are validated when their parent is visited.
        stack: list[tuple[Element, str]] = [(document.root, grammar.root)]
        while stack:
            element, name = stack.pop()
            names[element.node_id] = name
            production = grammar.production(name)
            assert isinstance(production, ElementProduction)
            if self._check_attributes:
                self._validate_attributes(element, production)
            child_names = self._children_names(element, production)
            sequence = [child_name for _, child_name in child_names]
            automaton = self._automata.automaton(name)
            if not automaton.matches(sequence):
                raise ValidationError(
                    f"content of <{element.tag}> does not match its model: "
                    f"found ({', '.join(sequence) or 'empty'})",
                    element.node_id,
                )
            for child, child_name in child_names:
                if isinstance(child, Element):
                    stack.append((child, child_name))
                else:
                    names[child.node_id] = child_name
        return Interpretation(grammar, names)

    # -- helpers -------------------------------------------------------------

    def _children_names(
        self, element: Element, production: ElementProduction
    ) -> list[tuple[Node, str]]:
        """Assign a name to each child (the unique one a local grammar
        permits), dropping ignorable whitespace."""
        grammar = self._grammar
        own_text = grammar.text_child_of(production.name)
        result: list[tuple[Node, str]] = []
        for child in element.children:
            if isinstance(child, Text):
                if own_text is not None:
                    result.append((child, own_text))
                elif self._ignore_whitespace and not child.value.strip():
                    continue
                else:
                    raise ValidationError(
                        f"text content not allowed in <{element.tag}>", child.node_id
                    )
            else:
                assert isinstance(child, Element)
                child_name = grammar.child_element_name(production.name, child.tag)
                if child_name is None:
                    raise ValidationError(
                        f"undeclared element <{child.tag}> in <{element.tag}>",
                        child.node_id,
                    )
                result.append((child, child_name))
        return result

    def _validate_attributes(self, element: Element, production: ElementProduction) -> None:
        declared = {attr.name: attr for attr in production.attributes}
        for attr in production.attributes:
            from repro.dtd.ast import AttributeDefaultKind

            if attr.default_kind is AttributeDefaultKind.REQUIRED and attr.name not in element.attributes:
                raise ValidationError(
                    f"missing required attribute {attr.name!r} on <{element.tag}>",
                    element.node_id,
                )
        # Undeclared attributes are tolerated (non-strict mode is the
        # pragmatic default; XMark documents are attribute-clean anyway).
        del declared


def validate(document: Document, grammar: Grammar, ignore_whitespace: bool = True) -> Interpretation:
    """Validate ``document`` against ``grammar``; returns ``ℑ``."""
    return TreeValidator(grammar, ignore_whitespace=ignore_whitespace).validate(document)


class EventValidator:
    """Streaming validator driven one event at a time.

    Feed it every event in order; it raises :class:`ValidationError` on the
    first violation.  :meth:`feed` returns the grammar name of each
    element and text node, which is how the streaming pruner learns the
    interpretation without building the tree.
    """

    def __init__(
        self,
        grammar: Grammar,
        ignore_whitespace: bool = True,
        check_attributes: "bool | None" = None,
    ) -> None:
        self._grammar = grammar
        self._ignore_whitespace = ignore_whitespace
        self._automata = _AutomatonCache(grammar)
        # Attribute checking is off by default (matching the tree
        # validator's tolerance of undeclared attributes), but grammars
        # can demand it: an inferred dataguide grammar sets
        # ``strict_attributes`` because an attribute never seen in the
        # sample is evidence the document strays — silently dropping it
        # in the pruned output would be wrong bytes, not tolerance.
        if check_attributes is None:
            check_attributes = bool(getattr(grammar, "strict_attributes", False))
        self._check_attributes = check_attributes
        self._declared_attrs: dict[str, frozenset[str]] = {}
        # Stack of [name, automaton, live state]; None before the root.
        self._stack: list[list] = []
        self._done = False

    def feed(self, event: Event) -> str | None:
        """Process one event.  For Start/Characters events, returns the
        grammar name assigned to that node; otherwise None."""
        grammar = self._grammar
        if isinstance(event, StartElement):
            if self._done:
                raise ValidationError("content after the root element closed")
            parent_name = self._stack[-1][0] if self._stack else None
            name = grammar.child_element_name(parent_name, event.tag)
            if not self._stack:
                if name != grammar.root:
                    root_tag = grammar.tag_of(grammar.root)
                    raise ValidationError(
                        f"root element is <{event.tag}>, expected <{root_tag}>"
                    )
            elif name is None:
                raise ValidationError(f"undeclared element <{event.tag}>")
            else:
                self._advance(name, f"<{event.tag}>")
            if self._check_attributes and event.attributes:
                self._validate_attributes(name, event)
            automaton = self._automata.automaton(name)
            self._stack.append([name, automaton, automaton.initial])
            return name
        if isinstance(event, EndElement):
            name, automaton, state = self._stack.pop()
            if not automaton.is_accepting(state):
                expected = ", ".join(sorted(automaton.allowed_names(state))) or "end of content"
                raise ValidationError(
                    f"content of <{event.tag}> ended prematurely (expected {expected})"
                )
            if not self._stack:
                self._done = True
            return None
        if isinstance(event, Characters):
            if not self._stack:
                return None
            parent_name = self._stack[-1][0]
            production = grammar.production(parent_name)
            assert isinstance(production, ElementProduction)
            own_text = grammar.text_child_of(parent_name)
            if own_text is not None:
                self._advance(own_text, "text content")
                return own_text
            if self._ignore_whitespace and not event.text.strip():
                return None
            raise ValidationError(f"text content not allowed in <{production.tag}>")
        return None

    def _validate_attributes(self, name: str, event: StartElement) -> None:
        declared = self._declared_attrs.get(name)
        if declared is None:
            production = self._grammar.production(name)
            assert isinstance(production, ElementProduction)
            declared = frozenset(attr.name for attr in production.attributes)
            self._declared_attrs[name] = declared
        for attribute in event.attributes:
            if attribute not in declared:
                raise ValidationError(
                    f"undeclared attribute {attribute!r} on <{event.tag}>"
                )

    def _advance(self, name: str, what: str) -> None:
        frame = self._stack[-1]
        new_state = frame[1].step(frame[2], name)
        if not new_state:
            expected = ", ".join(sorted(frame[1].allowed_names(frame[2]))) or "end of content"
            parent_tag = self._grammar.tag_of(frame[0])
            raise ValidationError(
                f"{what} not allowed here in <{parent_tag}> (expected {expected})"
            )
        frame[2] = new_state

    def finish(self) -> None:
        if self._stack:
            raise ValidationError("document ended with open elements")
        if not self._done:
            raise ValidationError("document has no root element")
