"""Two-run determinism check: digest mechanics plus an end-to-end smoke."""

from repro.lint.determinism import run_determinism_check


class TestEndToEnd:
    def test_same_seed_twice_is_deterministic(self):
        report = run_determinism_check(
            scheme="bohr", workload="bigdata-aggregation", seed=11, queries=1
        )
        assert report.deterministic
        assert report.result_digests[0] == report.result_digests[1]
        assert report.telemetry_digests[0] == report.telemetry_digests[1]
        assert report.telemetry_digests[0] != ""
        assert report.telemetry_events > 0
        assert "DETERMINISTIC" in report.render()
        assert "telemetry digests" in report.render()

    def test_different_seeds_differ(self):
        a = run_determinism_check(scheme="iridium", seed=11, queries=1)
        b = run_determinism_check(scheme="iridium", seed=12, queries=1)
        assert a.deterministic and b.deterministic
        assert a.result_digests[0] != b.result_digests[0]
