"""Metered main-memory query engine (the benchmarks' Galax stand-in),
prune-while-loading, and tag indexes with index pruning."""

from repro.engine.executor import QueryEngine, largest_processable_megabytes
from repro.engine.index import IndexStats, TagIndex, index_of_pruned_document
from repro.engine.loader import (
    LoadReport,
    load_full,
    load_many,
    load_pruned,
    load_pruned_validating,
)
from repro.engine.metrics import DEFAULT_MODEL, MemoryModel, RunReport

__all__ = [
    "DEFAULT_MODEL",
    "IndexStats",
    "LoadReport",
    "MemoryModel",
    "QueryEngine",
    "RunReport",
    "TagIndex",
    "index_of_pruned_document",
    "largest_processable_megabytes",
    "load_full",
    "load_many",
    "load_pruned",
    "load_pruned_validating",
]
