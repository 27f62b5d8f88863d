"""In-memory XML data model.

This is the paper's data model (Section 2.1): an ordered forest of labelled
ordered trees where every node carries a unique identifier.  We extend the
formal model with attributes (the paper's implementation does too, see
Section 6) while keeping the tree/forest algebra intact.

Two node kinds exist, matching the grammar ``t ::= s_i | l_i[f]``:

* :class:`Element` — a labelled node ``l_i[f]`` with a tag, attributes and
  an ordered list of children;
* :class:`Text` — a string leaf ``s_i``.

A :class:`Document` wraps a single root element and owns the id space.
Identifiers are assigned in document order (preorder), which makes
document-order comparisons a simple integer comparison *within one
document*.  Identifiers are never reused: pruning a document produces a new
document whose nodes keep their original ids, so query answers on the
original and the pruned document can be compared by id (this is exactly the
statement of Theorem 4.5).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Node:
    """Common behaviour of element and text nodes.

    Nodes are created detached; :class:`Document` (or an explicit call to
    :meth:`Element.append`) wires up parent pointers.  After a document has
    been frozen via :meth:`Document.renumber`, ids are stable and in
    document order.
    """

    __slots__ = ("node_id", "parent")

    def __init__(self) -> None:
        self.node_id: int = -1
        self.parent: Optional[Element] = None

    # -- navigation helpers shared by both node kinds ------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def ancestors_or_self(self) -> Iterator["Node"]:
        """Yield self then proper ancestors, nearest first."""
        yield self
        yield from self.ancestors()

    def root(self) -> "Node":
        """Return the topmost node reachable through parent pointers."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def siblings_before(self) -> Iterator["Node"]:
        """Yield preceding siblings in reverse document order."""
        if self.parent is None:
            return
        children = self.parent.children
        index = children.index(self)
        for position in range(index - 1, -1, -1):
            yield children[position]

    def siblings_after(self) -> Iterator["Node"]:
        """Yield following siblings in document order."""
        if self.parent is None:
            return
        children = self.parent.children
        index = children.index(self)
        for position in range(index + 1, len(children)):
            yield children[position]

    def self_and_descendants(self) -> Iterator["Node"]:
        """Yield this node then all descendants, in document order."""
        yield self
        yield from self.descendants()

    def descendants(self) -> Iterator["Node"]:
        """Yield proper descendants in document order (empty for text)."""
        return iter(())

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (self included)."""
        return sum(1 for _ in self.self_and_descendants())

    def text_value(self) -> str:
        """The string value: concatenation of descendant text nodes."""
        raise NotImplementedError

    def is_element(self) -> bool:
        return isinstance(self, Element)

    def is_text(self) -> bool:
        return isinstance(self, Text)


class Text(Node):
    """A text leaf ``s_i``."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        self.value = value

    def text_value(self) -> str:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.value if len(self.value) <= 24 else self.value[:21] + "..."
        return f"Text({preview!r}, id={self.node_id})"


class Element(Node):
    """A labelled tree node ``l_i[f]`` with attributes.

    Attributes are an ordered mapping ``name -> value``.  Children is a
    plain list; mutate it only through :meth:`append` / :meth:`extend` so
    parent pointers stay consistent.
    """

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[Iterable[Node]] = None,
    ) -> None:
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.children: list[Node] = []
        if children is not None:
            self.extend(children)

    # -- construction ---------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append ``child`` and set its parent pointer.  Returns it."""
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Node]) -> None:
        for child in children:
            self.append(child)

    # -- navigation -----------------------------------------------------

    def descendants(self) -> Iterator[Node]:
        """Proper descendants in document order, iteratively (no recursion
        limit issues on deep documents)."""
        stack: list[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def find_children(self, tag: str) -> Iterator["Element"]:
        """Child elements with the given tag, in document order."""
        for child in self.children:
            if isinstance(child, Element) and child.tag == tag:
                yield child

    def first_child(self, tag: str) -> Optional["Element"]:
        return next(self.find_children(tag), None)

    def text_value(self) -> str:
        parts: list[str] = []
        for node in self.descendants():
            if isinstance(node, Text):
                parts.append(node.value)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element(<{self.tag}>, id={self.node_id}, children={len(self.children)})"


class Document:
    """A well-formed tree (Def 2.2): the root element plus the id space.

    ``nodes_by_id`` indexes every node by identifier; this realises the
    paper's ``f @ i`` lookup.  Identifiers are assigned in preorder by
    :meth:`renumber`, so ``a.node_id < b.node_id`` iff ``a`` precedes ``b``
    in document order.
    """

    __slots__ = ("root", "nodes_by_id")

    def __init__(self, root: Element, renumber: bool = True) -> None:
        self.root = root
        self.nodes_by_id: dict[int, Node] = {}
        if renumber:
            self.renumber()
        else:
            self.reindex()

    # -- id management ----------------------------------------------------

    def renumber(self) -> None:
        """Assign fresh preorder identifiers to every node and rebuild the
        id index.  Call after structural surgery that created new nodes."""
        self.nodes_by_id.clear()
        for next_id, node in enumerate(self.root.self_and_descendants()):
            node.node_id = next_id
            self.nodes_by_id[next_id] = node

    def reindex(self) -> None:
        """Rebuild the id index keeping existing identifiers (used for
        pruned documents, whose nodes keep the ids of the original)."""
        self.nodes_by_id.clear()
        for node in self.root.self_and_descendants():
            if node.node_id < 0:
                raise ValueError("reindex() requires every node to have an id")
            if node.node_id in self.nodes_by_id:
                raise ValueError(f"duplicate node id {node.node_id}")
            self.nodes_by_id[node.node_id] = node

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """The paper's ``t @ i``: the unique subtree rooted at ``i``."""
        return self.nodes_by_id[node_id]

    def ids(self) -> set[int]:
        """``Ids(t)``: all identifiers occurring in the document."""
        return set(self.nodes_by_id)

    def size(self) -> int:
        """Total number of nodes."""
        return len(self.nodes_by_id)

    def iter(self) -> Iterator[Node]:
        """All nodes in document order."""
        return self.root.self_and_descendants()

    def elements(self) -> Iterator[Element]:
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(<{self.root.tag}>, {self.size()} nodes)"


def is_projection_of(smaller: Node, larger: Node) -> bool:
    """Decide the paper's projection order ``smaller ≼ larger`` (Def 2.1).

    ``smaller`` is a projection of ``larger`` when it can be obtained by
    replacing some subforests of ``larger`` with the empty forest.  We
    check structurally: tags/texts must match and the child list of
    ``smaller`` must be an ordered subsequence of ``larger``'s children
    each related by ``≼``.  Node ids are compared when both sides carry
    real ids (>= 0), which is the case for pruned documents.
    """
    if smaller.node_id >= 0 and larger.node_id >= 0:
        if smaller.node_id != larger.node_id:
            return False
    if isinstance(smaller, Text) and isinstance(larger, Text):
        return smaller.value == larger.value
    if isinstance(smaller, Element) and isinstance(larger, Element):
        if smaller.tag != larger.tag:
            return False
        # Attribute pruning (our extension of the paper's data model) is
        # part of the projection order: kept attributes must agree.
        if not (smaller.attributes.items() <= larger.attributes.items()):
            return False
        # Greedy subsequence match is correct here because ids (or, absent
        # ids, leftmost matching) uniquely anchor each child.
        position = 0
        for child in smaller.children:
            while position < len(larger.children):
                if is_projection_of(child, larger.children[position]):
                    position += 1
                    break
                position += 1
            else:
                return False
        return True
    return False
