"""Metered main-memory query engine (the benchmarks' Galax stand-in),
prune-while-loading, and tag indexes with index pruning."""

from repro import _lazy

_EXPORTS = {
    "DEFAULT_MODEL": "repro.engine.metrics",
    "IndexStats": "repro.engine.index",
    "LoadReport": "repro.engine.loader",
    "MemoryModel": "repro.engine.metrics",
    "QueryEngine": "repro.engine.executor",
    "RunReport": "repro.engine.metrics",
    "TagIndex": "repro.engine.index",
    "index_of_pruned_document": "repro.engine.index",
    "largest_processable_megabytes": "repro.engine.executor",
    "load_full": "repro.engine.loader",
    "load_many": "repro.engine.loader",
    "load_pruned": "repro.engine.loader",
    "load_pruned_validating": "repro.engine.loader",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
