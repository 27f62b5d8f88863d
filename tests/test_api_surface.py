"""The package surface is a contract: exactly the workload API, no drift.

``repro.__all__`` is pinned here name by name.  A new re-export (or a
lost one) fails this test, not a downstream user — growing the surface
is a deliberate act that edits this file in the same change.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from tests.conftest import BOOK_DTD, BOOK_XML

#: The whole public surface, sorted.  Edit deliberately.
EXPECTED = [
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


def test_all_is_exactly_the_contract():
    assert repro.__all__ == EXPECTED


def test_all_is_sorted():
    assert repro.__all__ == sorted(repro.__all__)


def test_every_public_name_resolves_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in repro.__all__:
            assert getattr(repro, name) is not None


def test_public_callables_are_the_canonical_objects():
    from repro.api import prune
    from repro.core.pipeline import analyze
    from repro.extract.api import extract
    from repro.loading import load_grammar
    from repro.parallel import extract_many, prune_many

    assert repro.prune is prune
    assert repro.analyze is analyze
    assert repro.extract is extract
    assert repro.load_grammar is load_grammar
    assert repro.prune_many is prune_many
    assert repro.extract_many is extract_many


#: Names the 1.x package re-exported at the top level, each with a
#: DeprecationWarning, until 2.0.0 removed them (a sample: the shims and
#: a few of the re-exports).
LEGACY = [
    "FastPruner",
    "analyze_query",
    "analyze_xquery",
    "grammar_from_text",
    "parse_document",
    "prune_events",
    "prune_file",
    "prune_stream",
    "prune_string",
    "serialize",
    "validate",
]


def test_legacy_names_are_gone():
    """A 1.x top-level name is off the surface and is an unknown name
    now: AttributeError, no warning."""
    assert not set(LEGACY) & set(repro.__all__)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in LEGACY:
            with pytest.raises(AttributeError):
                getattr(repro, name)


def test_unknown_names_still_raise():
    """A name the package never had raises AttributeError, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name


def test_submodules_stay_importable():
    """The strict surface does not wall off the submodules."""
    import importlib

    for module in (
        "repro.obs",
        "repro.errors",
        "repro.extract",
        "repro.loading",
        "repro.engine.loader",
        "repro.service",
    ):
        assert importlib.import_module(module) is not None


# -- what importing loads ------------------------------------------------------
#
# Each check below runs in a fresh interpreter: the suite's own imports
# have loaded nearly everything by the time these tests run.

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The set-up path of a one-shot prune: package import, XMark grammar,
#: analysis, prune-table compile.  Edit deliberately.
SETUP_MODULES = [
    "repro",
    "repro._lazy",
    "repro.core",
    "repro.core.inference",
    "repro.core.pipeline",
    "repro.core.projector",
    "repro.core.types",
    "repro.dtd",
    "repro.dtd.ast",
    "repro.dtd.grammar",
    "repro.dtd.parser",
    "repro.dtd.regex",
    "repro.errors",
    "repro.obs",
    "repro.projection",
    "repro.projection.fastpath",
    "repro.projection.prunetable",
    "repro.projection.stats",
    "repro.querylang",
    "repro.static",
    "repro.static.sat",
    "repro.workloads",
    "repro.workloads.xmark",
    "repro.workloads.xmark.dtd",
    "repro.xmltree",
    "repro.xmltree.events",
    "repro.xmltree.lexer",
    "repro.xmltree.nodes",
    "repro.xmltree.parser",
    "repro.xmltree.serializer",
    "repro.xpath",
    "repro.xpath.approximation",
    "repro.xpath.ast",
    "repro.xpath.functions",
    "repro.xpath.lexer",
    "repro.xpath.parser",
    "repro.xpath.values",
    "repro.xpath.xpathl",
]

_LOADED = (
    "import json, sys; print(json.dumps(sorted("
    "m for m in sys.modules if m.split('.')[0] == 'repro')))"
)


def _fresh(code: str, *options: str) -> str:
    """Run ``code`` in a new interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dir_offers_the_surface_only():
    """Of the public names ``dir(repro)`` lists in a fresh interpreter,
    none is a 1.x name: only the surface, and the ``TYPE_CHECKING``
    flag the package imports."""
    listed = json.loads(_fresh("import json, repro; print(json.dumps(dir(repro)))"))
    public = {name for name in listed if not name.startswith("_")}
    assert public == {name for name in EXPECTED if not name.startswith("_")} | {
        "TYPE_CHECKING"
    }


def test_import_repro_loads_nothing_else():
    assert json.loads(_fresh("import repro\n" + _LOADED)) == ["repro", "repro._lazy"]


def test_setup_path_loads_only_what_it_uses():
    setup = (
        "import repro\n"
        "from repro.projection.fastpath import FastPruner\n"
        "from repro.workloads.xmark import xmark_grammar\n"
        "grammar = xmark_grammar()\n"
        "projector = repro.analyze(grammar, ['//person/name']).projector\n"
        "FastPruner(grammar, projector)\n"
    )
    assert json.loads(_fresh(setup + _LOADED)) == SETUP_MODULES


@pytest.mark.parametrize("first_touch", [
    "repro.ExtractSpec",
    "repro.extract_many",
    "import repro.extract.spec",
    "from repro.extract import ExtractSpec",
])
def test_extract_stays_the_function_whatever_loads_first(first_touch):
    """``repro.extract`` is also a subpackage, which the import system
    binds onto ``repro`` when it first loads."""
    check = (
        "import repro\n"
        f"{first_touch}\n"
        "from repro.extract.api import extract\n"
        "print(repro.extract is extract)\n"
    )
    assert _fresh(check).split() == ["True"]


def _packages() -> list[str]:
    return sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
    )


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves_without_warning(package):
    resolve = (
        "import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        "for name in package.__all__:\n"
        "    getattr(package, name)\n"
        "print(len(package.__all__))\n"
    )
    assert int(_fresh(resolve, "-W", "error")) > 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the workers inherit the patched initializer by fork")
def test_batch_workers_fork_with_the_run_path_loaded(tmp_path):
    """A worker imports nothing after it forks: the modules it holds when
    its initializer runs are the ones it holds after pruning and
    extracting."""
    for i in range(4):
        (tmp_path / f"doc{i}.xml").write_text(BOOK_XML)
    run = (
        "import json, sys\n"
        "import repro\n"
        "from repro import pool\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "def report():\n"
        "    return AT_FORK, loaded()\n"
        "def init(*args):\n"
        "    global AT_FORK\n"
        "    AT_FORK = loaded()\n"
        "    initialize(*args)\n"
        "initialize, pool._init_worker = pool._init_worker, init\n"
        f"grammar = repro.load_grammar({BOOK_DTD!r}, root='bib')\n"
        f"assert repro.prune_many({str(tmp_path)!r}, grammar, ['//title'], jobs=2).ok\n"
        "spec = repro.ExtractSpec(rows='/bib/book', fields={'t': 'title/text()'})\n"
        f"assert repro.extract_many({str(tmp_path)!r}, grammar, spec, jobs=2).ok\n"
        "executor = pool._resident[0]._executor\n"
        "reports = [executor.submit(report).result() for _ in range(4)]\n"
        "print(json.dumps([after for before, after in reports if after != before]))\n"
    )
    assert json.loads(_fresh(run)) == []


@pytest.mark.parametrize("package", [name for name in _packages() if name != "repro"])
def test_importing_a_package_loads_only_the_package(package):
    """A package's names load on first use: importing it loads the
    package and its parents, nothing they re-export."""
    parts = package.split(".")
    expected = ["repro._lazy"] + [".".join(parts[:end]) for end in range(1, len(parts) + 1)]
    assert json.loads(_fresh(f"import {package}\n" + _LOADED)) == sorted(expected)


#: What the ``--server`` client loads: the run path's option and stats
#: types and the protocol, not the server, its pool or its workers.
#: Edit deliberately.
CLIENT_MODULES = [
    "repro",
    "repro._lazy",
    "repro.api",
    "repro.core",
    "repro.core.cache",
    "repro.core.inference",
    "repro.core.pipeline",
    "repro.core.projector",
    "repro.core.types",
    "repro.dtd",
    "repro.dtd.ast",
    "repro.dtd.automaton",
    "repro.dtd.grammar",
    "repro.dtd.regex",
    "repro.dtd.validator",
    "repro.errors",
    "repro.extract",
    "repro.extract.api",
    "repro.extract.records",
    "repro.extract.spec",
    "repro.extract.stats",
    "repro.extract.streaming",
    "repro.limits",
    "repro.obs",
    "repro.projection",
    "repro.projection.fastpath",
    "repro.projection.prunetable",
    "repro.projection.stats",
    "repro.projection.streaming",
    "repro.querylang",
    "repro.run",
    "repro.service",
    "repro.service.client",
    "repro.service.protocol",
    "repro.static",
    "repro.static.sat",
    "repro.xmltree",
    "repro.xmltree.events",
    "repro.xmltree.lexer",
    "repro.xmltree.nodes",
    "repro.xmltree.parser",
    "repro.xmltree.serializer",
    "repro.xpath",
    "repro.xpath.approximation",
    "repro.xpath.ast",
    "repro.xpath.functions",
    "repro.xpath.lexer",
    "repro.xpath.parser",
    "repro.xpath.values",
    "repro.xpath.xpathl",
]


def test_the_service_client_leaves_the_server_unloaded():
    loaded = json.loads(
        _fresh("from repro.service.client import ServiceClient\n" + _LOADED)
    )
    assert loaded == CLIENT_MODULES


def test_a_module_of_the_extract_package_imports_under_a_name():
    """``repro.extract`` is the facade function, and ``import
    repro.extract.api as api`` still binds the module."""
    check = (
        "import sys\n"
        "import repro.extract.api as api\n"
        "import repro.extract.spec as spec\n"
        "import repro\n"
        "print(api is sys.modules['repro.extract.api'],\n"
        "      spec is sys.modules['repro.extract.spec'],\n"
        "      repro.extract is api.extract)\n"
    )
    assert _fresh(check).split() == ["True", "True", "True"]
