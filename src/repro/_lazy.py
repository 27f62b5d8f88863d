"""Package surfaces that import on first use (PEP 562).

A package ``__init__`` in :mod:`repro` names what it re-exports in one
table, each name mapped to the module that defines it, and installs the
two hooks :func:`surface` builds from that table instead of importing
those modules up front.  ``import repro.dtd`` then loads nothing else;
the first ``repro.dtd.Grammar`` imports ``repro.dtd.grammar`` and caches
the class in the package namespace, so later reads are plain lookups.
"""

import sys
import warnings
from importlib import import_module


def surface(package, exports, deprecated=None):
    """``(__getattr__, __dir__)`` for ``package``.  A name in ``exports``
    (name -> defining module) loads on first use; a name in
    ``deprecated`` (the top-level package's old names) loads on every
    use, with a :class:`DeprecationWarning` naming its home."""
    namespace = vars(sys.modules[package])
    deprecated = deprecated or {}

    def __getattr__(name):
        home = exports.get(name)
        if home is not None:
            value = namespace[name] = getattr(import_module(home), name)
            return value
        home = deprecated.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        warnings.warn(
            f"importing {name!r} from the top-level {package!r} package is "
            f"deprecated; use 'from {home} import {name}' instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(import_module(home), name)

    def __dir__():
        return sorted(set(namespace) | set(exports) | set(deprecated))

    return __getattr__, __dir__
