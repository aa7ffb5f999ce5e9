"""Sanitizer unit tests (synthetic fixtures) plus an end-to-end run."""

from types import SimpleNamespace

import pytest

from repro.errors import InvariantViolation
from repro.obs.null_sanitizer import NULL_SANITIZER, NullSanitizer
from repro.obs.sanitize import Sanitizer, iter_violations


def _site_metrics(**overrides):
    base = dict(
        map_output_bytes=1000.0,
        intermediate_bytes=400.0,
        uploaded_bytes=300.0,
        local_shuffle_bytes=100.0,
        downloaded_bytes=300.0,
        map_seconds=2.0,
        map_finish=2.0,
        reduce_seconds=1.0,
        finish_time=5.0,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def _job_result(metrics=None, qct=5.0, transfers=()):
    return SimpleNamespace(
        per_site={"oregon": metrics or _site_metrics()},
        qct=qct,
        transfers=list(transfers),
    )


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(InvariantViolation):
            Sanitizer(mode="explode")

    def test_collect_mode_accumulates_without_raising(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_clock(5.0, 1.0)
        sanitizer.check_clock(5.0, 2.0)
        assert len(sanitizer.violations) == 2
        assert "FAILED" in sanitizer.summary()

    def test_raise_mode_raises_at_the_call_site(self):
        sanitizer = Sanitizer(mode="raise")
        with pytest.raises(InvariantViolation, match="clock moved backwards"):
            sanitizer.check_clock(5.0, 1.0)


class TestClock:
    def test_forward_clock_passes(self):
        sanitizer = Sanitizer(mode="raise")
        sanitizer.check_clock(1.0, 2.0)
        sanitizer.check_clock(2.0, 2.0)  # stalling is allowed
        assert sanitizer.violations == []
        assert sanitizer.checks_run == 2


class TestJobInvariants:
    def test_healthy_job_passes(self):
        sanitizer = Sanitizer(mode="raise")
        sanitizer.check_job(_job_result())
        assert sanitizer.violations == []
        assert sanitizer.checks_run > 0

    def test_combiner_creating_bytes_fails(self):
        sanitizer = Sanitizer(mode="collect")
        bad = _site_metrics(intermediate_bytes=2000.0)
        sanitizer.check_job(_job_result(metrics=bad))
        assert any("combine-conservation" in v for v in sanitizer.violations)

    def test_shipping_more_than_combined_fails(self):
        sanitizer = Sanitizer(mode="collect")
        bad = _site_metrics(uploaded_bytes=900.0)
        sanitizer.check_job(_job_result(metrics=bad))
        assert any("shuffle-conservation" in v for v in sanitizer.violations)

    def test_wan_bytes_must_be_conserved(self):
        sanitizer = Sanitizer(mode="collect")
        bad = _site_metrics(downloaded_bytes=999.0)
        sanitizer.check_job(_job_result(metrics=bad))
        assert any("wan-conservation" in v for v in sanitizer.violations)

    def test_qct_must_equal_latest_finish(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_job(_job_result(qct=99.0))
        assert any("qct-bound" in v for v in sanitizer.violations)

    def test_transfer_finishing_before_start_fails(self):
        sanitizer = Sanitizer(mode="collect")
        transfer = SimpleNamespace(
            transfer=SimpleNamespace(src="a", dst="b", start_time=4.0),
            finish_time=1.0,
        )
        sanitizer.check_job(_job_result(transfers=[transfer]))
        assert any("sim-clock" in v for v in sanitizer.violations)


class TestPlacementInvariants:
    def _problem(self, held=1000.0):
        return SimpleNamespace(I=lambda dataset, src: held)

    def test_feasible_solution_passes(self):
        sanitizer = Sanitizer(mode="raise")
        sanitizer.check_placement(
            self._problem(),
            {"oregon": 0.25, "ireland": 0.75},
            {("d0", "oregon", "ireland"): 400.0},
        )
        assert sanitizer.violations == []

    def test_fraction_above_one_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_placement(self._problem(), {"oregon": 1.5}, {})
        assert any("outside [0, 1]" in v for v in sanitizer.violations)

    def test_fractions_must_sum_to_one(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_placement(
            self._problem(), {"oregon": 0.3, "ireland": 0.3}, {}
        )
        assert any("sum to" in v for v in sanitizer.violations)

    def test_negative_budget_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_placement(
            self._problem(), {"oregon": 1.0},
            {("d0", "oregon", "ireland"): -5.0},
        )
        assert any("negative move budget" in v for v in sanitizer.violations)

    def test_self_move_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_placement(
            self._problem(), {"oregon": 1.0},
            {("d0", "oregon", "oregon"): 5.0},
        )
        assert any("self-move" in v for v in sanitizer.violations)

    def test_moving_more_than_held_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_placement(
            self._problem(held=100.0), {"oregon": 1.0},
            {("d0", "oregon", "ireland"): 90.0, ("d0", "oregon", "seoul"): 90.0},
        )
        assert any("lp-capacity" in v for v in sanitizer.violations)


class TestMovementInvariants:
    def _movement(self, **overrides):
        base = dict(
            scale_factor=1.0,
            within_lag=True,
            makespan_seconds=4.0,
            moved_bytes={("d0", "oregon", "ireland"): 100.0},
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_none_movement_is_skipped(self):
        sanitizer = Sanitizer(mode="raise")
        sanitizer.check_movement(None, lag_seconds=8.0)
        assert sanitizer.checks_run == 0

    def test_fit_within_lag_passes(self):
        sanitizer = Sanitizer(mode="raise")
        sanitizer.check_movement(self._movement(), lag_seconds=8.0)
        assert sanitizer.violations == []

    def test_claimed_fit_that_overruns_lag_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_movement(
            self._movement(makespan_seconds=20.0), lag_seconds=8.0
        )
        assert any("movement-lag" in v for v in sanitizer.violations)

    def test_zero_scale_factor_fails(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_movement(self._movement(scale_factor=0.0), lag_seconds=8.0)
        assert any("scale factor" in v for v in sanitizer.violations)


class TestFaultInvariants:
    def test_lost_bytes_must_match_failed_transfers(self):
        sanitizer = Sanitizer(mode="collect")
        metrics = _site_metrics(lost_bytes=100.0)
        sanitizer.check_job(_job_result(metrics=metrics))
        assert any("fault-accounting" in v for v in sanitizer.violations)

    def test_lost_bytes_backed_by_failed_transfer_pass(self):
        sanitizer = Sanitizer(mode="raise")
        metrics = _site_metrics(lost_bytes=100.0)
        failed = SimpleNamespace(
            transfer=SimpleNamespace(
                src="oregon", dst="ireland", start_time=0.0, num_bytes=100.0
            ),
            finish_time=3.0,
            failed=True,
        )
        sanitizer.check_job(_job_result(metrics=metrics, transfers=[failed]))
        assert sanitizer.violations == []

    def test_excluded_site_must_stay_idle(self):
        sanitizer = Sanitizer(mode="collect")
        metrics = _site_metrics(excluded=True)  # non-zero work everywhere
        sanitizer.check_job(_job_result(metrics=metrics))
        assert any("fault-exclusion" in v for v in sanitizer.violations)


class TestRetryInvariants:
    def _retry_result(self, **overrides):
        base = dict(
            transfer=SimpleNamespace(
                src="oregon", dst="ireland", start_time=0.0, num_bytes=100.0
            ),
            finish_time=10.0,
            attempts=1,
            failed=False,
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def _outcome(self, results, **overrides):
        delivered = sum(
            r.transfer.num_bytes for r in results if not r.failed
        )
        abandoned = [r for r in results if r.failed]
        base = dict(
            results=list(results),
            retries=sum(r.attempts - 1 for r in results),
            abandoned=abandoned,
            requested_bytes=sum(r.transfer.num_bytes for r in results),
            delivered_bytes=delivered,
            abandoned_bytes=sum(r.transfer.num_bytes for r in abandoned),
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def _policy(self, max_attempts=3):
        return SimpleNamespace(max_attempts=max_attempts)

    def test_consistent_outcome_passes(self):
        sanitizer = Sanitizer(mode="raise")
        outcome = self._outcome([
            self._retry_result(),
            self._retry_result(attempts=3, failed=True, finish_time=7.5),
        ])
        sanitizer.check_retry_outcome(outcome, self._policy())
        assert sanitizer.violations == []
        assert sanitizer.checks_run > 0

    def test_unbalanced_bytes_fail(self):
        sanitizer = Sanitizer(mode="collect")
        outcome = self._outcome([self._retry_result()], delivered_bytes=60.0)
        sanitizer.check_retry_outcome(outcome, self._policy())
        assert any("retry-conservation" in v for v in sanitizer.violations)

    def test_retry_counter_mismatch_fails(self):
        sanitizer = Sanitizer(mode="collect")
        outcome = self._outcome([self._retry_result(attempts=2)], retries=5)
        sanitizer.check_retry_outcome(outcome, self._policy())
        assert any("retry counter" in v for v in sanitizer.violations)

    def test_attempts_over_budget_fail(self):
        sanitizer = Sanitizer(mode="collect")
        outcome = self._outcome([self._retry_result(attempts=9)])
        sanitizer.check_retry_outcome(outcome, self._policy(max_attempts=3))
        assert any("retry-budget" in v for v in sanitizer.violations)

    def test_giving_up_early_fails(self):
        sanitizer = Sanitizer(mode="collect")
        outcome = self._outcome(
            [self._retry_result(attempts=2, failed=True)]
        )
        sanitizer.check_retry_outcome(outcome, self._policy(max_attempts=4))
        assert any("left unspent" in v for v in sanitizer.violations)

    def test_backoff_cannot_run_the_clock_backwards(self):
        sanitizer = Sanitizer(mode="collect")
        result = self._retry_result(finish_time=-1.0)
        sanitizer.check_retry_outcome(
            self._outcome([result]), self._policy()
        )
        assert any("sim-clock" in v for v in sanitizer.violations)


class TestNullTwin:
    def test_null_sanitizer_is_disabled_and_silent(self):
        assert NullSanitizer.enabled is False
        NULL_SANITIZER.check_clock(5.0, 1.0)
        NULL_SANITIZER.check_job(None)
        NULL_SANITIZER.check_placement(None, None, None)
        NULL_SANITIZER.check_movement(None, 0.0)
        NULL_SANITIZER.check_retry_outcome(None, None)
        assert NULL_SANITIZER.violations == ()

    def test_iter_violations_flattens(self):
        a = Sanitizer(mode="collect")
        a.check_clock(2.0, 1.0)
        b = Sanitizer(mode="collect")
        assert iter_violations([a, b]) == a.violations


class TestEndToEnd:
    def test_bohr_run_satisfies_every_invariant(self):
        from repro.core.runner import run_experiment
        from repro.obs import instrument
        from repro.systems.base import SystemConfig
        from repro.wan.presets import ec2_ten_sites
        from repro.workloads import build_workload

        topology = ec2_ten_sites(base_uplink="2MB/s")
        config = SystemConfig(lag_seconds=8.0, seed=11, partition_records=8)

        def factory():
            return build_workload(
                "bigdata-aggregation", topology, placement="random", seed=11
            )

        sanitizer = Sanitizer(mode="raise")
        with instrument.instrumented(sanitizer=sanitizer):
            run_experiment("bohr", factory, topology, config, query_limit=2)
        assert sanitizer.violations == []
        assert sanitizer.checks_run > 100

    def test_cli_sanitize_flag_reports_ok(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--scheme", "iridium", "--queries", "1", "--sanitize",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sanitizer OK" in out
        assert "0 violations" in out
