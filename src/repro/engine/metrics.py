"""Engine memory model.

The paper measures main-memory use of Galax, a DOM-style main-memory
engine.  Re-measuring a 2006 OCaml engine's RSS is not reproducible;
instead we use an explicit, deterministic cost model of what a DOM-style
main-memory engine allocates, calibrated to the usual constants
(per-node headers, child/sibling pointers, per-distinct-tag dictionary
entries, string payloads).

This model reproduces the paper's key *qualitative* observation (Section
6): memory gain can far exceed byte-size gain, because per-node overhead
dominates over text payload — a pruned document that still carries the
mixed-content bulk (bytes) but lost the node-dense structural sections
(people, auctions) costs proportionally much less memory.  It also models
the two effects the paper names explicitly: reduced fan-out ("engines that
chase sibling pointers") and fewer element names ("reduce memory
occupation when shredding").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmltree.nodes import Document, Element, Text


@dataclass(frozen=True, slots=True)
class MemoryModel:
    """Per-allocation costs (bytes) of a DOM-style main-memory engine."""

    element_header: int = 112  # node object, parent/first-child/next-sibling
    child_pointer: int = 8  # per entry in the child table
    text_header: int = 56
    text_byte: int = 1
    attribute_entry: int = 72
    attribute_byte: int = 1
    distinct_tag_entry: int = 256  # tag dictionary + per-tag index slot

    def document_bytes(self, document: Document) -> int:
        """Modelled bytes an engine allocates to hold ``document``."""
        total = 0
        tags: set[str] = set()
        for node in document.iter():
            if isinstance(node, Element):
                tags.add(node.tag)
                total += self.element_header
                total += self.child_pointer * len(node.children)
                for name, value in node.attributes.items():
                    total += self.attribute_entry + self.attribute_byte * (len(name) + len(value))
            elif isinstance(node, Text):
                total += self.text_header + self.text_byte * len(node.value)
        total += self.distinct_tag_entry * len(tags)
        return total


DEFAULT_MODEL = MemoryModel()


@dataclass(slots=True)
class RunReport:
    """One query execution's measurements."""

    query: str
    load_seconds: float
    query_seconds: float
    document_bytes: int  # modelled engine memory for the document
    eval_bytes: int  # modelled evaluation working set
    result_count: int
    nodes_touched: int
    document_nodes: int

    @property
    def total_bytes(self) -> int:
        return self.document_bytes + self.eval_bytes


#: Modelled bytes of evaluator working set per node touched during
#: navigation (intermediate node-set entries, context frames).
EVAL_BYTES_PER_TOUCH = 16
