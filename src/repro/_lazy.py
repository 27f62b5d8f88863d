"""Package surfaces that import on first use (PEP 562).

A package ``__init__`` in :mod:`repro` names what it re-exports in one
table, each name mapped to the module that defines it, and installs the
two hooks :func:`surface` builds from that table instead of importing
those modules up front.  ``import repro.dtd`` then loads nothing else;
the first ``repro.dtd.Grammar`` imports ``repro.dtd.grammar`` and caches
the class in the package namespace, so later reads are plain lookups.
"""

import sys
from importlib import import_module


def surface(package, exports):
    """``(__getattr__, __dir__)`` for ``package``: a name in ``exports``
    (name -> defining module) loads on first use."""
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        home = exports.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
