"""Comparison baselines: the Marian & Siméon path-based loader-pruner."""

from repro import _lazy

_EXPORTS = {
    "BaselineMetrics": "repro.baselines.marian_simeon",
    "BaselineResult": "repro.baselines.marian_simeon",
    "MarianSimeonPruner": "repro.baselines.marian_simeon",
    "ProjectionPath": "repro.baselines.paths",
    "PStep": "repro.baselines.paths",
    "PStepKind": "repro.baselines.paths",
    "baseline_paths_for_query": "repro.baselines.marian_simeon",
    "degrade_pathl": "repro.baselines.paths",
    "prune_with_baseline": "repro.baselines.marian_simeon",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
