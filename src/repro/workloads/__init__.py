"""Benchmark workloads: XMark, XPathMark, the Use Cases DTD corpus, the
Shakespeare play corpus, and random generators for property tests."""

from repro import _lazy

_EXPORTS = {
    "SHAKESPEARE_QUERIES": "repro.workloads.shakespeare",
    "TABLE1_XPATHMARK": "repro.workloads.xpathmark",
    "USE_CASES": "repro.workloads.usecases",
    "XPATHMARK_QUERIES": "repro.workloads.xpathmark",
    "classify_corpus": "repro.workloads.usecases",
    "generate_play": "repro.workloads.shakespeare",
    "shakespeare_grammar": "repro.workloads.shakespeare",
    "use_case_grammar": "repro.workloads.usecases",
    "xhtml_grammar": "repro.workloads.usecases",
    "xpathmark_query": "repro.workloads.xpathmark",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
