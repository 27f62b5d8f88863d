"""Grammar acquisition beyond DTD (ROADMAP item 2).

The type system behind projection consumes a tree grammar ``(X, E)``;
the DTD front-end (:mod:`repro.dtd`) is just one way to get one.  This
package adds the other two real-world sources:

* :mod:`repro.schema.xsd` — compile a supported subset of XML Schema to
  the existing grammar classes (plain local grammars, or single-type
  grammars when the schema uses local elements);
* :mod:`repro.schema.infer` — infer an :class:`InferredGrammar` from a
  sample of a schemaless corpus (the dataguide construction), carrying
  an ``on_stray`` escape-hatch policy for documents outside the
  inferred language;
* :mod:`repro.schema.wire` — a JSON codec so both kinds of grammar ride
  the service protocol by value, like DTD text does.

:func:`repro.load_grammar` dispatches here for ``format="xsd"`` and
``infer=``; everything downstream (facades, batch, service, CLI,
static analysis) is grammar-class agnostic.
"""

from repro import _lazy

_EXPORTS = {
    "InferredGrammar": "repro.schema.infer",
    "infer_grammar": "repro.schema.infer",
    "grammar_from_wire": "repro.schema.wire",
    "grammar_to_wire": "repro.schema.wire",
    "grammar_from_xsd": "repro.schema.xsd",
    "grammar_from_xsd_file": "repro.schema.xsd",
    "looks_like_xsd": "repro.schema.xsd",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
