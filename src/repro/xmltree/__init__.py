"""XML substrate: data model, streaming parser, builder and serializer.

This package is self-contained (no external XML library): it implements the
XQuery data model fragment of the paper's Section 2.1 together with the
plumbing every other subsystem uses — the DTD validator, the XPath/XQuery
evaluators, the static analysis and, centrally, the streaming pruner.
"""

from repro import _lazy

_EXPORTS = {
    "Characters": "repro.xmltree.events",
    "Comment": "repro.xmltree.events",
    "Doctype": "repro.xmltree.events",
    "Document": "repro.xmltree.nodes",
    "Element": "repro.xmltree.nodes",
    "EndDocument": "repro.xmltree.events",
    "EndElement": "repro.xmltree.events",
    "Event": "repro.xmltree.events",
    "Node": "repro.xmltree.nodes",
    "ProcessingInstruction": "repro.xmltree.events",
    "StartDocument": "repro.xmltree.events",
    "StartElement": "repro.xmltree.events",
    "Text": "repro.xmltree.nodes",
    "TreeBuilder": "repro.xmltree.builder",
    "build_tree": "repro.xmltree.builder",
    "is_projection_of": "repro.xmltree.nodes",
    "parse_document": "repro.xmltree.builder",
    "parse_document_with_doctype": "repro.xmltree.builder",
    "parse_events": "repro.xmltree.parser",
    "serialize": "repro.xmltree.serializer",
    "write_document": "repro.xmltree.serializer",
    "write_events": "repro.xmltree.serializer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
