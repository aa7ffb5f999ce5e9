"""The perf-regression engine: the sim band, gates, schema checks."""

import pytest

from repro.bench.compare import compare_reports
from repro.bench.schema import SCHEMA_VERSION
from repro.errors import BenchError


def make_report(
    sim,
    wall=None,
    duration=1.0,
    suite="smoke",
    case="case-a",
    suites=("smoke",),
    schema_version=SCHEMA_VERSION,
    extra_cases=None,
):
    benchmarks = {
        case: {
            "module": "bench_demo",
            "suites": list(suites),
            "sim": dict(sim),
            "wall": dict(wall or {}),
            "duration_seconds": {
                "median": duration,
                "stdev": 0.0,
                "samples": [duration],
            },
        }
    }
    if extra_cases:
        benchmarks.update(extra_cases)
    return {
        "schema_version": schema_version,
        "git_sha": "deadbeef",
        "suite": suite,
        "seed": 11,
        "benchmarks": benchmarks,
    }


class TestVerdicts:
    def test_improvement_passes(self):
        baseline = make_report({"qct": 10.0})
        candidate = make_report({"qct": 9.0})
        report = compare_reports(baseline, candidate)
        assert report.ok
        assert [d.status for d in report.deltas if d.metric == "qct"] == [
            "improved"
        ]

    def test_identical_sim_with_wall_noise_passes(self):
        baseline = make_report({"qct": 10.0}, wall={"lp": 1.0}, duration=2.0)
        candidate = make_report({"qct": 10.0}, wall={"lp": 1.2}, duration=2.5)
        report = compare_reports(baseline, candidate)
        assert report.ok
        assert not report.regressions

    def test_sim_regression_fails(self):
        baseline = make_report({"qct": 10.0})
        candidate = make_report({"qct": 10.001})
        report = compare_reports(baseline, candidate)
        assert not report.ok
        assert report.regressions[0].metric == "qct"
        assert "FAIL" in report.render()

    def test_tiny_sim_regression_still_fails(self):
        # The sim band is 1e-9 relative: any real change trips the gate.
        baseline = make_report({"wan_bytes": 1e9})
        candidate = make_report({"wan_bytes": 1e9 + 100})
        assert not compare_reports(baseline, candidate).ok

    def test_wall_below_abs_floor_is_noise(self):
        baseline = make_report({"qct": 1.0}, wall={"lp": 0.01})
        candidate = make_report({"qct": 1.0}, wall={"lp": 0.04})
        assert compare_reports(baseline, candidate).ok

    def test_wall_only_difference_never_fails_the_gate(self):
        # Wall readings and duration_seconds are information: a 25x
        # blow-up is not compared, let alone gated.
        baseline = make_report({"qct": 10.0}, wall={"lp": 0.2}, duration=1.0)
        candidate = make_report({"qct": 10.0}, wall={"lp": 5.0}, duration=9.0)
        report = compare_reports(baseline, candidate)
        assert report.ok
        assert [delta.metric for delta in report.deltas] == ["qct"]


class TestSchemaGate:
    def test_schema_version_mismatch_is_a_clear_error(self):
        baseline = make_report({"qct": 1.0}, schema_version=SCHEMA_VERSION)
        candidate = make_report({"qct": 1.0}, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(BenchError) as excinfo:
            compare_reports(baseline, candidate)
        message = str(excinfo.value)
        assert "schema version mismatch" in message
        assert f"v{SCHEMA_VERSION}" in message
        assert f"v{SCHEMA_VERSION + 1}" in message


class TestDomain:
    def test_missing_case_fails_the_gate(self):
        baseline = make_report({"qct": 1.0})
        candidate = make_report({"qct": 1.0}, case="case-b")
        report = compare_reports(baseline, candidate)
        assert not report.ok
        assert "case-a" in report.missing_cases
        assert "case-b" in report.new_cases

    def test_missing_metric_fails_the_gate(self):
        baseline = make_report({"qct": 1.0, "wan_bytes": 5.0})
        candidate = make_report({"qct": 1.0})
        report = compare_reports(baseline, candidate)
        assert not report.ok
        assert any("wan_bytes" in entry for entry in report.missing_cases)

    def test_new_metric_is_not_gated(self):
        baseline = make_report({"qct": 1.0})
        candidate = make_report({"qct": 1.0, "wan_bytes": 5.0})
        report = compare_reports(baseline, candidate)
        assert report.ok
        assert any(d.status == "new" for d in report.deltas)

    def test_smoke_candidate_gates_against_full_baseline(self):
        # Baseline ran the full suite; the smoke candidate only compares
        # smoke-tagged cases, so the unrun figures case is not "missing".
        figures_case = {
            "fig-case": {
                "module": "bench_fig",
                "suites": ["figures"],
                "sim": {"qct": 3.0},
                "wall": {},
                "duration_seconds": {"median": 1.0, "stdev": 0.0,
                                     "samples": [1.0]},
            }
        }
        baseline = make_report(
            {"qct": 1.0}, suite="full", extra_cases=figures_case
        )
        candidate = make_report({"qct": 1.0}, suite="smoke")
        report = compare_reports(baseline, candidate)
        assert report.ok
        assert not report.missing_cases
