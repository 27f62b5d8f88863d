"""XPath substrate: full XPath 1.0 engine + the XPathℓ sub-language.

* :mod:`repro.xpath.parser` / :mod:`repro.xpath.evaluator` — a complete
  XPath engine (all axes, predicates, core function library) used to run
  queries on original and pruned documents;
* :mod:`repro.xpath.xpathl` — the paper's analysis sub-language with its
  denotational semantics (Definitions 3.1–3.3);
* :mod:`repro.xpath.approximation` — full XPath → XPathℓ (Sections 3.3
  and 4.3).
"""

from repro import _lazy

_EXPORTS = {
    "AndExpr": "repro.xpath.ast",
    "Approximation": "repro.xpath.approximation",
    "AttributeNode": "repro.xpath.values",
    "Axis": "repro.xpath.ast",
    "BinaryExpr": "repro.xpath.ast",
    "Context": "repro.xpath.evaluator",
    "Expr": "repro.xpath.ast",
    "FilterExpr": "repro.xpath.ast",
    "FunctionCall": "repro.xpath.ast",
    "KindTest": "repro.xpath.ast",
    "LStep": "repro.xpath.xpathl",
    "Literal": "repro.xpath.ast",
    "LocationPath": "repro.xpath.ast",
    "NameTest": "repro.xpath.ast",
    "NodeTest": "repro.xpath.ast",
    "Number": "repro.xpath.ast",
    "OrExpr": "repro.xpath.ast",
    "PathExpr": "repro.xpath.ast",
    "PathL": "repro.xpath.xpathl",
    "SimplePath": "repro.xpath.xpathl",
    "Step": "repro.xpath.ast",
    "UnaryMinus": "repro.xpath.ast",
    "UnionExpr": "repro.xpath.ast",
    "VariableRef": "repro.xpath.ast",
    "XPathEvaluator": "repro.xpath.evaluator",
    "XPathValue": "repro.xpath.values",
    "approximate_query": "repro.xpath.approximation",
    "evaluate": "repro.xpath.evaluator",
    "evaluate_pathl": "repro.xpath.xpathl",
    "parse_location_path": "repro.xpath.parser",
    "parse_pathl": "repro.xpath.xpathl",
    "parse_xpath": "repro.xpath.parser",
    "path": "repro.xpath.xpathl",
    "select": "repro.xpath.evaluator",
    "simple": "repro.xpath.xpathl",
    "step": "repro.xpath.xpathl",
    "string_value": "repro.xpath.values",
    "to_xpath": "repro.xpath.xpathl",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
