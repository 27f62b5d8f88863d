"""Tabular extraction: projection-driven streaming XML → records ETL.

Declares a tabular workload as an :class:`ExtractSpec` (row path + named
row-relative field paths + NULL spelling), infers the projector that
workload needs, and emits JSONL/CSV records in the same fused single
scan markup pruning uses — see :mod:`repro.extract.streaming` for the
one-pass assembler and :mod:`repro.extract.reference` for the tree-walk
oracle the differential tests compare it against.

Public surface (re-exported at package top level as ``repro.extract`` /
``repro.ExtractSpec`` / ``repro.ExtractOptions`` / ``repro.ExtractResult``):

* :class:`ExtractSpec` — the declared workload;
* :func:`extract` — the one-call facade (mirrors :func:`repro.prune`);
* :class:`ExtractOptions` / :class:`ExtractResult` — its knobs and
  return value;
* :class:`ExtractStats` — the pass counters.

Batch fan-out lives in :func:`repro.parallel.extract_many`; the service
op is ``extract`` (see :mod:`repro.service`).
"""

from repro import _lazy

_EXPORTS = {
    "ExtractOptions": "repro.extract.api",
    "ExtractResult": "repro.extract.api",
    "ExtractSpec": "repro.extract.spec",
    "ExtractStats": "repro.extract.stats",
    "FieldPath": "repro.extract.spec",
    "extract": "repro.extract.api",
    "extract_document": "repro.extract.reference",
    "iter_records": "repro.extract.streaming",
    "reference_records": "repro.extract.reference",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
