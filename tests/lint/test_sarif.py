"""SARIF 2.1.0 rendering: structure, locations, baseline suppressions."""

import json

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.findings import Finding
from repro.lint.sarif import render_sarif, write_sarif


def _finding(**overrides):
    base = dict(path="src/repro/x.py", line=3, col=4, rule_id="R010",
                message="shared mutable state")
    base.update(overrides)
    return Finding(**base)


class TestRenderSarif:
    def _run(self, findings, baseline=None):
        return json.loads(render_sarif(findings, baseline=baseline))["runs"][0]

    def test_document_shape(self):
        document = json.loads(render_sarif([_finding()]))
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["tool"]["driver"]["name"] == "repro.lint"

    def test_result_location_is_one_based(self):
        result = self._run([_finding()])["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 5  # col 4 zero-based

    def test_paths_normalized_for_ci(self):
        result = self._run([_finding(path="/ci/repo/src/repro/x.py")])
        uri = result["results"][0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri == "src/repro/x.py"

    def test_rule_descriptors_cover_static_rules(self):
        driver = self._run([_finding(rule_id="R001")])["tool"]["driver"]
        ids = {rule["id"] for rule in driver["rules"]}
        assert {"R001", "R010"} <= ids

    def test_w001_is_warning_level(self):
        result = self._run([_finding(rule_id="W001")])["results"][0]
        assert result["level"] == "warning"

    def test_baseline_finding_carries_suppression(self):
        baseline = Baseline([BaselineEntry(
            path="src/repro/x.py", rule_id="R010",
            message="shared mutable state", justification="audited",
        )])
        results = self._run([_finding()], baseline=baseline)["results"]
        assert results[0]["suppressions"][0]["justification"] == "audited"

    def test_new_finding_has_no_suppression(self):
        baseline = Baseline([])
        results = self._run([_finding()], baseline=baseline)["results"]
        assert "suppressions" not in results[0]

    def test_write_sarif_emits_valid_json(self, tmp_path):
        target = tmp_path / "lint.sarif"
        write_sarif([_finding()], str(target))
        assert json.loads(target.read_text())["version"] == "2.1.0"
