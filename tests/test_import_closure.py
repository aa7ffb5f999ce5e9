"""What a start-up loads: the benchmark's imports stay clear of modules
no workload runs, every package-level name still resolves, no module
imports a name it never reads, and ``src`` defines nothing public that
no program calls.

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
from collections import defaultdict
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


# ----------------------------------------------------------------------
# what src carries
# ----------------------------------------------------------------------

SOURCE = ROOT / "src" / "repro"
#: Where a caller may live; ``tests`` folders never count.
CALLER_FOLDERS = ("src", "benchmarks", "examples", "perfbench", "tools")


def _module_name(path):
    parts = path.relative_to(SOURCE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _type_names(node):
    """Names a type expression reads, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _type_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass  # a string in a subscript that is not a type
    return names


def _all_names(tree):
    """The strings listed in a module's ``__all__``."""
    return {
        constant.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for constant in ast.walk(node.value)
        if isinstance(constant, ast.Constant)
    }


def _names_read(tree):
    """Every name a module reads: loads, type expressions (annotations
    and subscripts, strings included) and ``__all__``."""
    names = _all_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _type_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _type_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _type_names(node.annotation)
        elif isinstance(node, ast.Subscript):
            names |= _type_names(node.slice)
    return names


def test_no_module_imports_a_name_it_never_reads():
    """Module-level imports, ``TYPE_CHECKING`` blocks included; a package
    ``__init__`` imports to re-export, so it is not checked."""
    unread = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements = []
        for node in tree.body:
            statements += node.body if isinstance(node, ast.If) else [node]
        read = _names_read(tree)
        for node in statements:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [
                f"{_module_name(path)}:{node.lineno} {name}"
                for name in bound
                if name not in read
            ]
    assert unread == []


#: Public top-level definitions of ``src/repro`` that no program calls,
#: each with the reason it stays.  Entries may only leave: a new public
#: definition comes with a caller, and one that gains a caller (or goes)
#: leaves this list.
UNCALLED = {
    **{
        f"repro.lint.rules:{rule}": "a registered lint rule: @register adds it to the rule set"
        for rule in (
            "BlanketExceptRule", "FloatEqualityRule", "HardCodedBenchSeedRule",
            "LibraryPrintRule", "MutableDefaultRule", "RawRandomRule",
            "UnorderedIterationRule", "WallClockRule",
        )
    },
    "repro.olap.builder:CubeBuilder": "§4.1 incremental cube maintenance, not yet driven by a run",
    "repro.olap.query:brute_force_answer": "the raw-record oracle cube-served answering is held to",
    "repro.core.persistence:load_results": "reads back what save_results writes",
    "repro.core.persistence:result_from_dict": "load_results' record decoder",
    "repro.core.report:summarize_reduction": "tests only: a deletion candidate",
    "repro.util.rng:spawn_seeds": "tests only: a deletion candidate",
    "repro.bench.registry:clear_registry": "resets the bench case registry between test runs",
    "repro.obs.export:validate_chrome_events": "checks a Chrome trace document; make telemetry runs it",
    "repro.obs.series:link_throughput": "tests only: a deletion candidate",
    "repro.obs.series:wan_bytes_carried": "tests only: a deletion candidate",
    "repro.obs.series:flow_occupancy": "tests only: a deletion candidate",
    "repro.obs.telemetry:iter_kind": "tests only: a deletion candidate",
    "repro.obs.sanitize:iter_violations": "tests only: a deletion candidate",
    "repro.query.pagerank:pagerank": "the §8.1 UDF's iterative algorithm; examples run only its score sum",
    "repro.chaos.schedule:merge_schedules": "tests only: a deletion candidate",
    **{
        f"repro.olap.{name}": "§2.2 OLAP operations, tests only: a deletion candidate"
        for name in (
            "dimension:Dimension", "dimension:Hierarchy", "dimension:date_hierarchy",
            "dimension:region_hierarchy", "operations:dice", "operations:drill_down",
            "operations:roll_up", "operations:slice_cube",
        )
    },
    **{
        f"repro.similarity.{name}": "tests only: a deletion candidate"
        for name in (
            "metrics:cosine_similarity", "metrics:key_histogram", "metrics:merge_ratio",
            "metrics:overlap_coefficient", "metrics:weighted_jaccard", "vsm:VectorSpaceModel",
        )
    },
    "repro.util.stats:RunningStats": "tests only: a deletion candidate",
    **{
        f"repro.wan.variability:{name}": "what TransferScheduler(profiles=) takes; no run sets one"
        for name in ("BandwidthProfile", "diurnal_profile", "random_walk_profile")
    },
    **{
        f"repro.workloads.traceio:{name}": "tests only: a deletion candidate"
        for name in ("load_catalog", "load_dataset", "save_catalog", "save_dataset")
    },
}


def _uncalled_definitions():
    """``module:name`` of each public top-level function or class of
    ``src/repro`` that no live code names (a name read, imported or
    listed in ``__all__``) outside its own body and ``tests``.

    Live code is everything outside a top-level definition, plus the
    body of every definition something live names; a definition named
    only by uncalled ones is uncalled too.  Names are matched without
    resolving modules, so a shared name keeps both definitions alive.
    """
    definitions = {}  # key -> name
    readers = defaultdict(set)  # name -> keys of the definitions reading it (None: live code)
    for folder in CALLER_FOLDERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            in_source = SOURCE in path.parents
            for name in _all_names(tree):
                readers[name].add(None)
            for node in tree.body:
                owner = None
                if in_source and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    owner = f"{_module_name(path)}:{node.name}"
                    definitions[owner] = node.name
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        readers[sub.id].add(owner)
                    elif isinstance(sub, ast.Attribute):
                        readers[sub.attr].add(owner)
                    elif isinstance(sub, ast.alias):
                        readers[sub.asname or sub.name].add(owner)
    uncalled = set()
    while True:
        newly = {
            key
            for key, name in definitions.items()
            if key not in uncalled and not readers[name] - uncalled - {key}
        }
        if not newly:
            break
        uncalled |= newly
    return sorted(key for key in uncalled if not definitions[key].startswith("_"))


def test_every_public_definition_has_a_caller():
    assert _uncalled_definitions() == sorted(UNCALLED)
