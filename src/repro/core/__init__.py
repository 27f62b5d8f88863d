"""Core static analysis: the paper's type system and projector inference.

* :mod:`repro.core.types`      — A_E / T_E (Definition 4.1);
* :mod:`repro.core.inference`  — the Figure 1 type system;
* :mod:`repro.core.projector`  — the Figure 2 projector inference;
* :mod:`repro.core.pipeline`   — the user-facing analyze() entry point.
"""

from repro import _lazy

_EXPORTS = {
    "AnalysisResult": "repro.core.pipeline",
    "CacheStats": "repro.core.cache",
    "Env": "repro.core.inference",
    "ProjectorCache": "repro.core.cache",
    "ProjectorInference": "repro.core.projector",
    "TypeInference": "repro.core.inference",
    "TypeOperators": "repro.core.types",
    "analyze": "repro.core.pipeline",
    "default_cache": "repro.core.cache",
    "depth_unfolded_grammar": "repro.core.depth",
    "fold_names": "repro.core.depth",
    "grammar_fingerprint": "repro.core.cache",
    "infer_projector": "repro.core.projector",
    "infer_type": "repro.core.inference",
    "initial_env": "repro.core.inference",
    "materialized_projector": "repro.core.projector",
    "type_of_query": "repro.core.pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
