"""The XMark benchmark substrate: DTD, generator, queries."""

from repro import _lazy

_EXPORTS = {
    "ROOT_TAG": "repro.workloads.xmark.dtd",
    "TABLE1_XMARK": "repro.workloads.xmark.queries",
    "XMARK_DTD": "repro.workloads.xmark.dtd",
    "XMARK_QUERIES": "repro.workloads.xmark.queries",
    "XMarkCounts": "repro.workloads.xmark.generator",
    "XMarkGenerator": "repro.workloads.xmark.generator",
    "factor_for_megabytes": "repro.workloads.xmark.generator",
    "generate_document": "repro.workloads.xmark.generator",
    "generate_file": "repro.workloads.xmark.generator",
    "xmark_grammar": "repro.workloads.xmark.dtd",
    "xmark_query": "repro.workloads.xmark.queries",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
