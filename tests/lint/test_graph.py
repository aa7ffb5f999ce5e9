"""Project-model construction: modules, function frames, resilience."""

import os
import textwrap

from repro.lint.graph import MODULE_FRAME, ProjectGraph, dotted_name, iter_frame

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


def _write_pkg(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


class TestModuleTable:
    def test_package_dirs_get_dotted_names(self, tmp_path):
        _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/impl.py": "def go():\n    return 1\n",
            "pkg/sub/__init__.py": "",
            "pkg/sub/leaf.py": "x = 1\n",
        })
        graph = ProjectGraph.build([str(tmp_path / "pkg")])
        assert set(graph.modules) == {
            "pkg", "pkg.impl", "pkg.sub", "pkg.sub.leaf",
        }

    def test_loose_dir_modules_use_bare_names(self, tmp_path):
        _write_pkg(tmp_path, {"scripts/runner.py": "def main():\n    pass\n"})
        graph = ProjectGraph.build([str(tmp_path / "scripts")])
        assert "runner" in graph.modules

    def test_every_module_gets_a_module_frame(self, tmp_path):
        _write_pkg(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "x = 1\n"})
        graph = ProjectGraph.build([str(tmp_path / "pkg")])
        assert f"pkg.m.{MODULE_FRAME}" in graph.functions

    def test_alias_table_holds_relative_and_lazy_imports(self, tmp_path):
        _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/m.py": (
                "import numpy as np\n"
                "import os.path\n"
                "from . import sibling\n"
                "from ..util import helper as h\n"
                "from pkg.other import *\n"
                "def lazy():\n"
                "    from collections import deque\n"
            ),
        })
        graph = ProjectGraph.build([str(tmp_path / "pkg")])
        assert graph.modules["pkg.sub.m"].import_aliases == {
            "np": "numpy", "os": "os", "sibling": "pkg.sub.sibling",
            "h": "pkg.util.helper", "deque": "collections.deque",
        }


class TestCallResolution:
    """What the model keeps for R010: frame locals, and R000 on a
    module that does not parse."""

    def test_subscript_store_does_not_make_receiver_local(self, tmp_path):
        _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/impl.py": (
                "_TABLE = {}\n"
                "def put(key, value):\n"
                "    _TABLE[key] = value\n"
            ),
        })
        graph = ProjectGraph.build([str(tmp_path / "pkg")])
        info = graph.functions["pkg.impl.put"]
        assert "_TABLE" not in info.local_names

    def test_parse_failure_recorded_and_build_continues(self, tmp_path):
        _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ok.py": "def fine():\n    return 1\n",
            "pkg/bad.py": "def broken(:\n",
        })
        graph = ProjectGraph.build([str(tmp_path / "pkg")])
        assert "pkg.ok.fine" in graph.functions
        assert [f.rule_id for f in graph.parse_failures] == ["R000"]


class TestIterFrame:
    def test_nested_def_bodies_are_excluded(self):
        import ast

        tree = ast.parse(
            "def outer():\n"
            "    a = 1\n"
            "    def inner():\n"
            "        b = 2\n"
            "    return inner\n"
        )
        outer = tree.body[0]
        names = [
            node.id for node in iter_frame(outer.body)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        ]
        assert "a" in names and "b" not in names

    def test_dotted_name_resolves_aliases(self):
        import ast

        node = ast.parse("np.random.default_rng()").body[0].value.func
        assert dotted_name(node, {"np": "numpy"}) == "numpy.random.default_rng"


class TestRealTree:
    """The model must load every module of this repository."""

    def _graph(self):
        return ProjectGraph.build([
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, "benchmarks"),
        ])

    def test_shipped_tree_parses_completely(self):
        assert self._graph().parse_failures == []
