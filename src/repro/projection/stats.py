"""Pruning statistics — the quantities Table 1 reports."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.xmltree.nodes import Document, Element, Text


@dataclass(slots=True)
class PruneStats:
    """Counters gathered by one pruning pass.

    ``*_in`` count the original document, ``*_out`` the pruned one;
    ``bytes_*`` measure serialised markup size (the paper's "document
    size" columns).
    """

    elements_in: int = 0
    elements_out: int = 0
    texts_in: int = 0
    texts_out: int = 0
    attributes_in: int = 0
    attributes_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    distinct_tags_in: set[str] = field(default_factory=set)
    distinct_tags_out: set[str] = field(default_factory=set)

    @property
    def nodes_in(self) -> int:
        return self.elements_in + self.texts_in

    @property
    def nodes_out(self) -> int:
        return self.elements_out + self.texts_out

    @property
    def node_ratio(self) -> float:
        """Pruned / original node count (lower = more pruning)."""
        return self.nodes_out / self.nodes_in if self.nodes_in else 1.0

    @property
    def size_ratio(self) -> float:
        """Pruned / original byte size — Table 1's "Gain in Size" column
        expresses this as a percentage."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 1.0

    @property
    def size_percent(self) -> float:
        return 100.0 * self.size_ratio

    def as_counters(self) -> dict[str, int]:
        """The counters an observability span carries for one pruning pass
        (:mod:`repro.obs`) — field for field the Table 1 quantities, so a
        trace can substantiate the Section 6 size/complexity claims."""
        return {
            "elements_in": self.elements_in,
            "elements_out": self.elements_out,
            "texts_in": self.texts_in,
            "texts_out": self.texts_out,
            "attributes_in": self.attributes_in,
            "attributes_out": self.attributes_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "nodes_in": self.nodes_in,
            "nodes_out": self.nodes_out,
            "tags_in": len(self.distinct_tags_in),
            "tags_out": len(self.distinct_tags_out),
        }

    def __getstate__(self) -> tuple:
        return (
            self.elements_in,
            self.elements_out,
            self.texts_in,
            self.texts_out,
            self.attributes_in,
            self.attributes_out,
            self.bytes_in,
            self.bytes_out,
            self.distinct_tags_in,
            self.distinct_tags_out,
        )

    def __setstate__(self, state: tuple) -> None:
        # Unpickling is how per-document stats reach the parent of a
        # batch: intern the tag names, so a result set holds one copy of
        # each name instead of one per document.
        (
            self.elements_in,
            self.elements_out,
            self.texts_in,
            self.texts_out,
            self.attributes_in,
            self.attributes_out,
            self.bytes_in,
            self.bytes_out,
            tags_in,
            tags_out,
        ) = state
        self.distinct_tags_in = {sys.intern(tag) for tag in tags_in}
        self.distinct_tags_out = {sys.intern(tag) for tag in tags_out}

    def merge(self, other: "PruneStats") -> "PruneStats":
        """Accumulate another pass's counters into this one (corpus-level
        aggregation for batch pruning); returns ``self``."""
        self.elements_in += other.elements_in
        self.elements_out += other.elements_out
        self.texts_in += other.texts_in
        self.texts_out += other.texts_out
        self.attributes_in += other.attributes_in
        self.attributes_out += other.attributes_out
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.distinct_tags_in |= other.distinct_tags_in
        self.distinct_tags_out |= other.distinct_tags_out
        return self

    @property
    def complexity_reduction(self) -> float:
        """Reduction in the number of distinct element tags — the paper's
        observation that pruning also reduces document *complexity*, which
        is what lets engines process pruned documents larger than the
        unpruned maximum (Section 6, "Quite informative as well...")."""
        if not self.distinct_tags_in:
            return 0.0
        return 1.0 - len(self.distinct_tags_out) / len(self.distinct_tags_in)


def measure_document(document: Document) -> tuple[int, int, int, set[str]]:
    """(elements, texts, attributes, distinct tags) of a document."""
    elements = texts = attributes = 0
    tags: set[str] = set()
    for node in document.iter():
        if isinstance(node, Element):
            elements += 1
            attributes += len(node.attributes)
            tags.add(node.tag)
        elif isinstance(node, Text):
            texts += 1
    return elements, texts, attributes, tags


def compare_documents(original: Document, pruned: Document) -> PruneStats:
    """Build stats from two in-memory documents (serialised sizes use the
    canonical serializer)."""
    from repro.xmltree.serializer import serialize

    stats = PruneStats()
    stats.elements_in, stats.texts_in, stats.attributes_in, stats.distinct_tags_in = measure_document(original)
    stats.elements_out, stats.texts_out, stats.attributes_out, stats.distinct_tags_out = measure_document(pruned)
    stats.bytes_in = len(serialize(original))
    stats.bytes_out = len(serialize(pruned))
    return stats
