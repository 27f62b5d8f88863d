"""XQuery FLWR core (Section 5): parser, evaluator, path extraction.

The projector pipeline for XQuery::

    q  --rewrite_query-->  q'  --extract_paths (Fig. 3)-->  {P1..Pn}
       --infer projector per Pi, union-->  π
"""

from repro import _lazy

_EXPORTS = {
    "AttributeValue": "repro.xquery.ast",
    "ElementConstructor": "repro.xquery.ast",
    "EmptySequence": "repro.xquery.ast",
    "ForExpr": "repro.xquery.ast",
    "IfExpr": "repro.xquery.ast",
    "LetExpr": "repro.xquery.ast",
    "OrderByExpr": "repro.xquery.ast",
    "QExpr": "repro.xquery.ast",
    "QuantifiedExpr": "repro.xquery.ast",
    "Sequence": "repro.xquery.ast",
    "XQueryEvaluator": "repro.xquery.evaluator",
    "effective_boolean": "repro.xquery.evaluator",
    "evaluate_xquery": "repro.xquery.evaluator",
    "extract_paths": "repro.xquery.extraction",
    "free_variables": "repro.xquery.ast",
    "parse_xquery": "repro.xquery.parser",
    "rewrite_query": "repro.xquery.rewrite",
    "serialize_sequence": "repro.xquery.evaluator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
