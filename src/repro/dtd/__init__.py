"""DTD substrate: parsing, local tree grammars, properties, validation.

The paper treats a DTD as a local tree grammar ``(X, E)`` (Section 2.2).
This package parses real ``.dtd`` syntax, lowers it to that formal object,
checks the Definition 4.3 properties that gate completeness, and validates
documents producing the interpretation ``ℑ`` used by type-driven
projection.
"""

from repro import _lazy

_EXPORTS = {
    "Alt": "repro.dtd.regex",
    "Atom": "repro.dtd.regex",
    "AttlistDecl": "repro.dtd.ast",
    "AttributeDef": "repro.dtd.ast",
    "AttributeDefaultKind": "repro.dtd.ast",
    "AttributeProduction": "repro.dtd.grammar",
    "ContentKind": "repro.dtd.ast",
    "ContentModel": "repro.dtd.ast",
    "DTDDocument": "repro.dtd.ast",
    "DTDParser": "repro.dtd.parser",
    "ElementDecl": "repro.dtd.ast",
    "ElementProduction": "repro.dtd.grammar",
    "Empty": "repro.dtd.regex",
    "Epsilon": "repro.dtd.regex",
    "EventValidator": "repro.dtd.validator",
    "GlushkovAutomaton": "repro.dtd.automaton",
    "Grammar": "repro.dtd.grammar",
    "GrammarProperties": "repro.dtd.properties",
    "Interpretation": "repro.dtd.validator",
    "Opt": "repro.dtd.regex",
    "Plus": "repro.dtd.regex",
    "Production": "repro.dtd.grammar",
    "Regex": "repro.dtd.regex",
    "Seq": "repro.dtd.regex",
    "SingleTypeGrammar": "repro.dtd.singletype",
    "Star": "repro.dtd.regex",
    "TextProduction": "repro.dtd.grammar",
    "TreeValidator": "repro.dtd.validator",
    "analyze_grammar": "repro.dtd.properties",
    "attribute_name": "repro.dtd.grammar",
    "grammar_from_dtd": "repro.dtd.grammar",
    "grammar_from_productions": "repro.dtd.grammar",
    "grammar_from_text": "repro.dtd.grammar",
    "is_attribute_name": "repro.dtd.grammar",
    "is_parent_unambiguous": "repro.dtd.properties",
    "is_recursive": "repro.dtd.properties",
    "is_star_guarded": "repro.dtd.properties",
    "is_text_name": "repro.dtd.grammar",
    "parse_dtd": "repro.dtd.parser",
    "recursive_names": "repro.dtd.properties",
    "single_type_grammar": "repro.dtd.singletype",
    "text_name": "repro.dtd.grammar",
    "validate": "repro.dtd.validator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
