"""Type-driven projection: in-memory (Def 2.7) and streaming pruning.

The unified streaming entry point is :func:`repro.prune` (see
:mod:`repro.api`).
"""

from repro import _lazy

_EXPORTS = {
    "FastPruner": "repro.projection.fastpath",
    "PruneStats": "repro.projection.stats",
    "PruneTable": "repro.projection.prunetable",
    "StreamingPruner": "repro.projection.streaming",
    "TagPlan": "repro.projection.prunetable",
    "compile_prune_table": "repro.projection.prunetable",
    "compare_documents": "repro.projection.stats",
    "measure_document": "repro.projection.stats",
    "prune_document": "repro.projection.tree",
    "prune_tree": "repro.projection.tree",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
