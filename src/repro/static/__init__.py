"""Static satisfiability and update-independence analysis.

Everything in this package is *static-phase* work in the paper's sense:
it consumes only the compiled grammar ``(X, E)`` — never a document —
and its conclusions therefore hold for every grammar-valid document at
once.  Two judgements live here:

* **Satisfiability** (:mod:`repro.static.sat`): can a query select any
  node in *some* valid document?  Emptiness is decided by derivability
  and reachability over the content-model regexes (after *XPath
  Satisfiability ... under Real-World DTDs*, Ishihara et al.), composed
  with the Figure 1 type inference for the path/qualifier structure.
  An UNSAT verdict licenses answering the query with an empty result
  without opening the document.

* **Update independence** (:mod:`repro.static.independence`): can an
  update along the given paths ever change a projected view?  (After
  *Type-Based Detection of XML Query-Update Independence*, Bidoit,
  Colazzo, Ulliana.)  A proven-independent update lets the resident
  service keep cached pruned payloads warm instead of invalidating.

Both verdicts are conservative in the sound direction: ``UNSAT`` and
``independent`` are proofs (under grammar-validity); ``SAT`` and
``dependent`` merely mean "could not prove otherwise".
"""

from repro import _lazy

_EXPORTS = {
    "BranchVerdict": "repro.static.sat",
    "IndependenceReport": "repro.static.independence",
    "QueryVerdict": "repro.static.sat",
    "classify_path": "repro.static.sat",
    "classify_query": "repro.static.sat",
    "derivable_names": "repro.static.sat",
    "filter_projector": "repro.static.sat",
    "impact_names": "repro.static.independence",
    "independent": "repro.static.independence",
    "occurring_names": "repro.static.sat",
    "regex_can_contain": "repro.static.sat",
    "regex_can_match": "repro.static.sat",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
