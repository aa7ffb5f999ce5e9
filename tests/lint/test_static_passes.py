"""The whole-program pass R010 against the seeded fixture package.

The fixture (``tests/lint/fixtures/staticdemo``) holds shared state
engineered to be invisible to the per-file rules — that invisibility is
asserted here too, since it is why R010 needs the whole program.
"""

import json
import os
import textwrap

import pytest

from repro.errors import LintError
from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.graph import ProjectGraph
from repro.lint.passes import (
    build_inventory,
    r010_message,
    shared_state_pass,
    write_shared_state,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "staticdemo")


@pytest.fixture(scope="module")
def demo():
    graph = ProjectGraph.build([FIXTURE])
    findings, inventory = shared_state_pass(graph)
    return graph, findings, inventory


def _rule_files(findings, rule_id):
    return sorted(
        os.path.basename(f.path) for f in findings if f.rule_id == rule_id
    )


def _package(tmp_path, source):
    pkg = tmp_path / "demo"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "state.py").write_text(textwrap.dedent(source))
    return shared_state_pass(ProjectGraph.build([str(pkg)]))[0]


class TestFixtureDemos:
    def test_per_file_rules_miss_every_seeded_violation(self):
        findings, _ = lint_paths([FIXTURE])
        assert findings == []

    def test_r010_inventories_module_cache(self, demo):
        _, findings, inventory = demo
        assert _rule_files(findings, "R010") == ["util.py"]
        entry = next(e for e in inventory if e.name == "_MEMO")
        assert entry.mutated and entry.kind == "module-global"
        assert any("util.py" in site for site in entry.mutation_sites)


class TestPassMechanics:
    def test_select_unknown_id_raises(self):
        # R009/R011/R012 were whole-program passes; their ids are gone.
        with pytest.raises(LintError):
            main(["--select", "R009", FIXTURE])

    def test_inventory_returned_even_when_r010_deselected(self, tmp_path,
                                                          capsys):
        out = tmp_path / "shared_state.json"
        assert main(["--select", "R001", "--shared-state", str(out),
                     FIXTURE]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert [e["name"] for e in payload["entries"]] == ["_MEMO"]

    def test_static_selection_runs_no_per_file_rule(self, tmp_path, capsys):
        pkg = tmp_path / "demo"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "state.py").write_text(textwrap.dedent("""\
            import random
            _M = {}
            def put(key):
                _M[key] = random.random()
            """))
        assert main(["--select", "R010", "--format", "json", str(pkg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in payload["findings"]] == ["R010"]

    def test_pragma_suppresses_static_finding(self, tmp_path):
        # The per-file runner's rule: a pragma anywhere on a multi-line
        # simple statement counts, the closing line included.
        assert _package(tmp_path, """\
            _TABLE = {
                "a": 1,
            }  # lint: allow[R010]
            def put(key, value):
                _TABLE[key] = value
            """) == []

    def test_pragma_at_mutation_site_does_not_suppress(self, tmp_path):
        findings = _package(tmp_path, """\
            _TABLE = {
                "a": 1,
            }
            def put(key, value):
                _TABLE[key] = value  # lint: allow[R010]
            """)
        assert [(f.rule_id, f.line) for f in findings] == [("R010", 1)]

    def test_pragma_on_cached_def_header_suppresses(self, tmp_path):
        assert _package(tmp_path, """\
            import functools
            @functools.lru_cache(maxsize=None)
            def lookup(
                key,
            ):  # lint: allow[R010]
                return key
            """) == []

    def test_import_time_table_building_is_not_a_mutation(self, tmp_path):
        pkg = tmp_path / "demo"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "table.py").write_text(
            "_TABLE = {}\n"
            "for key in ('a', 'b'):\n"
            "    _TABLE[key] = len(key)\n"
        )
        graph = ProjectGraph.build([str(pkg)])
        entry = next(
            e for e in build_inventory(graph) if e.name == "_TABLE"
        )
        assert not entry.mutated


class TestSharedStateExport:
    def test_write_shared_state_round_trips(self, demo, tmp_path):
        _, _, inventory = demo
        out = tmp_path / "shared_state.json"
        count = write_shared_state(inventory, str(out))
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert count == len(payload["entries"]) == len(inventory)

    def test_baseline_justification_joined_in(self, demo, tmp_path):
        from repro.lint.baseline import Baseline, BaselineEntry

        _, _, inventory = demo
        entry = next(e for e in inventory if e.name == "_MEMO")
        baseline = Baseline([BaselineEntry(
            path=entry.path, rule_id="R010",
            message=r010_message(entry),
            justification="demo fixture cache",
        )])
        out = tmp_path / "shared_state.json"
        write_shared_state(inventory, str(out), baseline=baseline)
        payload = json.loads(out.read_text())
        memo = next(
            e for e in payload["entries"] if e["name"] == "_MEMO"
        )
        assert memo["justification"] == "demo fixture cache"


    def test_moving_a_mutation_line_keeps_the_baseline_match(self, tmp_path):
        from repro.lint.baseline import Baseline, BaselineEntry

        (finding,) = _package(tmp_path, """\
            _TABLE = {}
            def put(key, value):
                _TABLE[key] = value
            """)
        baseline = Baseline([BaselineEntry(
            path=finding.path, rule_id=finding.rule_id,
            message=finding.message, justification="demo table",
        )])
        (tmp_path / "demo" / "state.py").write_text(
            "_TABLE = {}\ndef put(key, value):\n    key = str(key)\n"
            "    _TABLE[key] = value\n"
        )
        moved, _ = shared_state_pass(ProjectGraph.build([str(tmp_path / "demo")]))
        assert moved[0].line == finding.line
        diff = baseline.check(moved)
        assert (len(diff.known), diff.new, diff.stale) == (1, [], [])


class TestRealTreeStaticClean:
    """Meta self-check: the shipped tree vs the committed baseline."""

    REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)

    def test_static_passes_match_baseline_exactly(self):
        from repro.lint.baseline import Baseline

        graph = ProjectGraph.build([
            os.path.join(self.REPO_ROOT, "src", "repro"),
            os.path.join(self.REPO_ROOT, "benchmarks"),
        ])
        findings, _ = shared_state_pass(graph)
        baseline = Baseline.load(
            os.path.join(self.REPO_ROOT, "lint-baseline.json")
        )
        diff = baseline.check(findings)
        assert diff.new == [], "\n".join(f.render() for f in diff.new)
        assert diff.stale == [], diff.render()
