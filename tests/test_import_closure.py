"""What a start-up loads: the benchmark's imports stay clear of modules
no workload runs, and every package-level name still resolves.

Package ``__init__``s import only what a workload uses (DESIGN.md
"Start-up cost"); a re-export added back, or a new top-level import of
one of these modules, shows here before it shows in ``setup_s``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: What ``perfbench`` imports from ``repro``, module by module.
BENCHMARK_IMPORTS = (
    "repro",
    "repro.chaos.runtime",
    "repro.chaos.schedule",
    "repro.engine.job",
    "repro.obs.critpath",
    "repro.obs.instrument",
    "repro.obs.slo",
    "repro.obs.telemetry",
    "repro.placement.lp",
    "repro.placement.model",
    "repro.query.compiler",
    "repro.serve",
    "repro.types",
    "repro.wan.topology",
    "repro.workloads",
)

#: Modules no benchmark workload runs a function of; they load where
#: they are used (the CLI, examples, benchmarks scripts, tests).
NOT_LOADED = (
    "repro.chaos.profiles",
    "repro.core.persistence",
    "repro.core.report",
    "repro.engine.dag",
    "repro.engine.join",
    "repro.obs.sanitize",
    "repro.obs.span",
    "repro.obs.views",
    "repro.olap.builder",
    "repro.olap.dimension",
    "repro.query.pagerank",
    "repro.similarity.lsh",
    "repro.similarity.metrics",
    "repro.similarity.minhash",
    "repro.similarity.vsm",
    "repro.util.tabulate",
    "repro.wan.variability",
    "repro.workloads.bigdata",
    "repro.workloads.images",
)

CHILD = """
import json, sys
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "repro")))
"""


def loaded_by(*modules):
    """The ``repro`` modules a fresh interpreter holds after importing
    ``modules``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *modules],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout))


def test_benchmark_imports_load_no_unused_module():
    loaded = loaded_by(*BENCHMARK_IMPORTS)
    assert set(BENCHMARK_IMPORTS) <= loaded
    assert sorted(loaded & set(NOT_LOADED)) == []


def test_unused_modules_still_import():
    """Left out of the closure, not out of the program."""
    assert set(NOT_LOADED) <= loaded_by(*NOT_LOADED)


def _package_imports():
    """``(module, name)`` for every ``from repro[.package] import name``
    in perfbench, the examples and the benchmark scripts."""
    packages = {"repro"} | {
        f"repro.{path.parent.name}" for path in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    found = set()
    for folder in ("perfbench", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module in packages:
                    found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", _package_imports())
def test_package_level_name_resolves(module, name):
    package = importlib.import_module(module)
    if not hasattr(package, name):
        # ``from package import submodule`` imports the submodule.
        importlib.import_module(f"{module}.{name}")


def test_top_level_all_resolves():
    import repro

    assert repro.__all__
    for name in repro.__all__:
        assert getattr(repro, name) is not None
