"""Type-based XML projection — a reproduction of Benzaken, Castagna,
Colazzo & Nguyên, "Type-Based XML Projection", VLDB 2006.

The package surface is the workload API: load a grammar, analyze a
workload (queries or an extract spec), then prune or extract in one
streaming pass.  Everything else lives in its submodule
(``repro.dtd``, ``repro.projection``, ``repro.xpath``, ...).

Quickstart::

    from repro import ExtractSpec, analyze, extract, load_grammar, prune

    grammar = load_grammar(DTD_TEXT)            # DTD text, path, or XML
    result = analyze(grammar, ["//book[author='Dante']/title"])
    pruned = prune(XML_TEXT, grammar, result.projector)

    spec = ExtractSpec(rows="/bib/book",
                       fields={"title": "title/text()", "isbn": "@isbn"})
    rows = extract(XML_TEXT, grammar, spec).records

See README.md for the full tour and DESIGN.md for the paper-to-module map.
"""

import sys as _sys
import types as _types
from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.api import PruneOptions, PruneResult, prune
    from repro.core.pipeline import AnalysisResult, analyze
    from repro.errors import StrayDocumentError, UnsupportedSchemaError
    from repro.extract.api import ExtractOptions, ExtractResult, extract
    from repro.extract.spec import ExtractSpec
    from repro.limits import Limits
    from repro.loading import load_grammar
    from repro.parallel import BatchError, BatchResult, extract_many, prune_many
    from repro.schema.infer import InferredGrammar, infer_grammar

__version__ = "2.0.0"

__all__ = [
    "AnalysisResult",
    "BatchError",
    "BatchResult",
    "ExtractOptions",
    "ExtractResult",
    "ExtractSpec",
    "InferredGrammar",
    "Limits",
    "PruneOptions",
    "PruneResult",
    "StrayDocumentError",
    "UnsupportedSchemaError",
    "__version__",
    "analyze",
    "extract",
    "extract_many",
    "infer_grammar",
    "load_grammar",
    "prune",
    "prune_many",
]

#: The public surface, each name mapped to the module that defines it.
#: Nothing is imported until a name is first used (PEP 562), so
#: ``import repro`` stays cheap for every fresh process.
_EXPORTS = {
    "AnalysisResult": "repro.core.pipeline",
    "BatchError": "repro.parallel",
    "BatchResult": "repro.parallel",
    "ExtractOptions": "repro.extract.api",
    "ExtractResult": "repro.extract.api",
    "ExtractSpec": "repro.extract.spec",
    "InferredGrammar": "repro.schema.infer",
    "Limits": "repro.limits",
    "PruneOptions": "repro.api",
    "PruneResult": "repro.api",
    "StrayDocumentError": "repro.errors",
    "UnsupportedSchemaError": "repro.errors",
    "analyze": "repro.core.pipeline",
    "extract": "repro.extract.api",
    "extract_many": "repro.parallel",
    "infer_grammar": "repro.schema.infer",
    "load_grammar": "repro.loading",
    "prune": "repro.api",
    "prune_many": "repro.parallel",
}

__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)


class _Package(_types.ModuleType):
    """``extract`` names both the facade function and a subpackage, and
    the import system binds a subpackage onto its parent when it first
    loads.  Keep the function, whichever of the two loads first."""

    def __setattr__(self, name, value):
        if name != "extract" or not isinstance(value, _types.ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
