"""Two-run determinism check: digest mechanics plus an end-to-end smoke."""

import pytest

from repro.errors import LintError
from repro.lint.determinism import (
    fresh_interpreter_digests,
    run_determinism_check,
    run_digests,
    second_hash_seed,
)


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
        assert report.hash_seeds[0] != report.hash_seeds[1]
        assert "(fresh interpreter)" in report.render()

    def test_different_seeds_differ(self):
        a = run_determinism_check(scheme="iridium", seed=11, queries=1)
        b = run_determinism_check(scheme="iridium", seed=12, queries=1)
        assert a.deterministic and b.deterministic
        assert a.result_digests[0] != b.result_digests[0]


class TestFreshInterpreter:
    """The second run is a new process under another PYTHONHASHSEED, so
    hash-order dependence (R003's hazard, through any call chain) and
    state left over from the first run show as a digest mismatch."""

    ARGV = ["run", "--scheme", "bohr", "--workload", "bigdata-aggregation",
            "--seed", "11", "--queries", "1"]

    @pytest.mark.parametrize("current, second", [
        (None, "0"), ("random", "0"), ("0", "1"), ("41", "42"),
        ("4294967295", "0"),
    ])
    def test_second_hash_seed_differs_from_this_process(self, current, second):
        assert second_hash_seed(current) == second

    def test_digests_agree_across_hash_seeds(self):
        here = run_digests(self.ARGV)
        assert fresh_interpreter_digests(self.ARGV, "1") == here
        assert fresh_interpreter_digests(self.ARGV, "7") == here

    def test_failed_second_run_raises(self):
        with pytest.raises(LintError, match="second run exited"):
            fresh_interpreter_digests(["run", "--queries", "many"], "0")
