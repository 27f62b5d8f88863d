"""Abstract syntax for full XPath (the paper's generic queries ``Q``).

This AST covers XPath 1.0 plus the XPath 2.0 value/node comparison
operators the paper lists in Section 3.3 (``eq ne lt le gt ge is << >>``).
The static analysis never works on this AST directly: it is first
approximated into XPathℓ (:mod:`repro.xpath.xpathl`) by
:mod:`repro.xpath.approximation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Axis(Enum):
    """The thirteen XPath axes (namespace axis omitted — the paper's data
    model has no namespaces)."""

    CHILD = "child"
    DESCENDANT = "descendant"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    DESCENDANT_OR_SELF = "descendant-or-self"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING = "following"
    PRECEDING = "preceding"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"
    SELF = "self"
    ATTRIBUTE = "attribute"

    @property
    def is_upward(self) -> bool:
        return self in (Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF)


# -- node tests ---------------------------------------------------------------


class NodeTest:
    """Base class for node tests."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NameTest(NodeTest):
    """``tag`` — or ``*`` when :attr:`name` is None."""

    name: str | None  # None encodes the wildcard '*'

    def __str__(self) -> str:
        return self.name if self.name is not None else "*"


@dataclass(frozen=True, slots=True)
class KindTest(NodeTest):
    """``node()``, ``text()``, ``comment()``,
    ``processing-instruction()``, or the paper's ``element()``."""

    kind: str  # 'node' | 'text' | 'comment' | 'processing-instruction' | 'element'

    def __str__(self) -> str:
        return f"{self.kind}()"


# -- expressions ---------------------------------------------------------------


class Expr:
    """Base class for XPath expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Step:
    """One location step ``axis::test[pred1][pred2]...``."""

    axis: Axis
    test: NodeTest
    predicates: tuple["Expr", ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{predicate}]" for predicate in self.predicates)
        return f"{self.axis.value}::{self.test}{preds}"


@dataclass(frozen=True, slots=True)
class LocationPath(Expr):
    """``/step/step/...`` (absolute) or ``step/step/...`` (relative)."""

    steps: tuple[Step, ...]
    absolute: bool = False

    def __str__(self) -> str:
        body = "/".join(str(step) for step in self.steps)
        return ("/" + body) if self.absolute else body


@dataclass(frozen=True, slots=True)
class PathExpr(Expr):
    """A filter expression continued by a relative path, e.g.
    ``$x/child::a`` or ``(e)[1]/b``."""

    source: Expr
    steps: tuple[Step, ...]

    def __str__(self) -> str:
        tail = "/".join(str(step) for step in self.steps)
        return f"{self.source}/{tail}" if tail else str(self.source)


@dataclass(frozen=True, slots=True)
class FilterExpr(Expr):
    """A primary expression with predicates: ``$x[1]``, ``(a|b)[c]``."""

    primary: Expr
    predicates: tuple[Expr, ...]

    def __str__(self) -> str:
        preds = "".join(f"[{predicate}]" for predicate in self.predicates)
        return f"({self.primary}){preds}"


@dataclass(frozen=True, slots=True)
class OrExpr(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} or {self.right}"


@dataclass(frozen=True, slots=True)
class AndExpr(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} and {self.right}"


#: General (node-set aware) and value comparison operators, plus node
#: identity/order comparisons — the ``op`` set of Section 3.3.
COMPARISON_OPERATORS = frozenset(
    ("=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge", "is", "<<", ">>")
)

ARITHMETIC_OPERATORS = frozenset(("+", "-", "*", "div", "mod"))


@dataclass(frozen=True, slots=True)
class BinaryExpr(Expr):
    """Comparison or arithmetic operator application."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class UnaryMinus(Expr):
    operand: Expr

    def __str__(self) -> str:
        return f"-{self.operand}"


@dataclass(frozen=True, slots=True)
class UnionExpr(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} | {self.right}"


@dataclass(frozen=True, slots=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(arg) for arg in self.args)})"


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True, slots=True)
class Number(Expr):
    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True, slots=True)
class VariableRef(Expr):
    name: str

    def __str__(self) -> str:
        return f"${self.name}"
