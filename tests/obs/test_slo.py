"""SLO tracking: exact quantiles, burn-rate math, spec parsing, emission.

Each tenant's p50/p99 is :func:`repro.util.stats.percentile` of the
samples the tracker keeps — held ``==`` by a hypothesis property over
generated sample feeds.  Tracker tests use hand-built observation feeds
so every count and burn rate is checkable by eye.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.slo import (
    DEFAULT_GOAL,
    SloSpec,
    SloTracker,
    parse_slo_targets,
)
from repro.obs.telemetry import EVENT_KINDS, TelemetryBus, load_jsonl, write_jsonl
from repro.util.stats import percentile

TENANTS = ["tenant-00", "tenant-01", "tenant-02"]


def fed_row(qcts, finishes=None):
    """The one-tenant standing after observing ``qcts`` in order."""
    tracker = SloTracker([SloSpec(tenant="a", target_seconds=1.0)])
    for index, qct in enumerate(qcts):
        tracker.observe("a", finishes[index] if finishes else float(index), qct)
    return tracker.finalize().rows[0]


class TestQuantileSketch:
    """Each tenant's latency summary: exact percentiles of its samples."""

    def test_exact_for_small_streams(self):
        row = fed_row([5.0, 1.0, 3.0])
        assert row.p50 == 3.0
        assert row.p99 == pytest.approx(4.96)

    def test_empty_queries_zero(self):
        row = fed_row([])
        assert (row.completed, row.p50, row.p99) == (0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        tracker = SloTracker([SloSpec(tenant="a", target_seconds=1.0)])
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ObservabilityError, match="qct and finish"):
                tracker.observe("a", 1.0, bad)
            with pytest.raises(ObservabilityError, match="qct and finish"):
                tracker.observe("a", bad, 1.0)
        assert tracker.finalize().rows[0].completed == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            max_size=60,
        )
    )
    def test_parity_with_exact_percentile(self, samples):
        """The tracker's p50/p99 are ``percentile`` of its samples, to the bit."""
        finishes = [finish for finish, _qct in samples]
        qcts = [qct for _finish, qct in samples]
        row = fed_row(qcts, finishes)
        assert row.completed == len(qcts)
        assert row.p50 == percentile(qcts, 50.0)
        assert row.p99 == percentile(qcts, 99.0)

    def test_deterministic_for_same_input_order(self):
        values = [math.sin(i) * 10.0 + 10.0 for i in range(2000)]
        first, second = fed_row(values), fed_row(values)
        assert (first.p50, first.p99) == (second.p50, second.p99)
        # Exact quantiles do not depend on the order either.
        shuffled = values[:]
        random.Random(3).shuffle(shuffled)
        third = fed_row(shuffled)
        assert (third.p50, third.p99) == (first.p50, first.p99)

    def test_out_of_range_quantiles_clamp(self):
        """p50/p99 never leave the samples' range, subnormals included."""
        tiny = math.ulp(0.0)
        for values in ([3 * tiny, tiny, 2 * tiny], [tiny, 1.0, 1e300]):
            row = fed_row(values)
            assert min(values) <= row.p50 <= row.p99 <= max(values)


class TestSloSpec:
    def test_rejects_non_positive_target(self):
        with pytest.raises(ObservabilityError, match="positive"):
            SloSpec(tenant="t", target_seconds=0.0)

    def test_rejects_non_finite_target(self):
        for target in (float("nan"), float("inf")):
            with pytest.raises(ObservabilityError, match="target_seconds"):
                SloSpec(tenant="t", target_seconds=target)

    def test_rejects_degenerate_goal(self):
        for goal in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ObservabilityError, match="goal"):
                SloSpec(tenant="t", target_seconds=1.0, goal=goal)


class TestParseTargets:
    def test_default_covers_all_tenants(self):
        specs = parse_slo_targets(["default=2.5"], TENANTS)
        assert [spec.tenant for spec in specs] == TENANTS
        assert all(spec.target_seconds == 2.5 for spec in specs)
        assert all(spec.goal == DEFAULT_GOAL for spec in specs)

    def test_explicit_beats_default(self):
        specs = parse_slo_targets(
            ["default=2.5", "tenant-01=0.5"], TENANTS, goal=0.9
        )
        by_name = {spec.tenant: spec for spec in specs}
        assert by_name["tenant-01"].target_seconds == 0.5
        assert by_name["tenant-00"].target_seconds == 2.5
        assert all(spec.goal == 0.9 for spec in specs)

    def test_explicit_only_tracks_named(self):
        specs = parse_slo_targets(["tenant-02=1.0"], TENANTS)
        assert [spec.tenant for spec in specs] == ["tenant-02"]

    def test_unknown_tenant_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown tenant"):
            parse_slo_targets(["tenant-99=1.0"], TENANTS)

    def test_malformed_pairs_rejected(self):
        for bad in ("tenant-00", "=1.0", "tenant-00=", "tenant-00=abc"):
            with pytest.raises(ObservabilityError, match="bad SLO target"):
                parse_slo_targets([bad], TENANTS)


class TestTracker:
    def tracker(self):
        return SloTracker(
            [SloSpec(tenant="a", target_seconds=1.0, goal=0.9)],
            window_seconds=10.0,
        )

    def test_counts_and_attainment(self):
        tracker = self.tracker()
        for finish, qct in ((1.0, 0.5), (2.0, 0.8), (3.0, 2.0), (12.0, 0.1)):
            tracker.observe("a", finish, qct)
        report = tracker.finalize(makespan=15.0)
        row = report.rows[0]
        assert (row.completed, row.violations) == (4, 1)
        assert row.attainment == 0.75
        assert not row.met  # 0.75 < goal 0.9

    def test_burn_rate_is_violation_rate_over_budget(self):
        tracker = self.tracker()
        # Window 0: 2 of 4 violate; goal 0.9 -> budget 0.1 -> burn 5.0.
        for qct in (0.5, 2.0, 2.0, 0.5):
            tracker.observe("a", 5.0, qct)
        report = tracker.finalize()
        assert report.burn_rate("a", 0) == pytest.approx(5.0)
        assert report.rows[0].max_burn == pytest.approx(5.0)

    def test_windows_are_finish_aligned(self):
        tracker = self.tracker()
        tracker.observe("a", 9.999, 0.5)
        tracker.observe("a", 10.0, 0.5)
        assert set(tracker.finalize().windows) == {("a", 0), ("a", 1)}

    def test_unspecced_tenant_ignored(self):
        tracker = self.tracker()
        tracker.observe("ghost", 1.0, 99.0)
        report = tracker.finalize()
        assert len(report.rows) == 1
        assert report.rows[0].completed == 0
        assert report.rows[0].attainment == 1.0

    def test_rejects_duplicate_specs(self):
        specs = [
            SloSpec(tenant="a", target_seconds=1.0),
            SloSpec(tenant="a", target_seconds=2.0),
        ]
        with pytest.raises(ObservabilityError, match="duplicate"):
            SloTracker(specs)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ObservabilityError, match="window"):
            SloTracker([SloSpec(tenant="a", target_seconds=1.0)],
                       window_seconds=0.0)

    def test_rejects_non_finite_window(self):
        for window in (float("nan"), float("inf")):
            with pytest.raises(ObservabilityError, match="window_seconds"):
                SloTracker([SloSpec(tenant="a", target_seconds=1.0)],
                           window_seconds=window)


class TestEmission:
    def fed_tracker(self):
        tracker = SloTracker(
            parse_slo_targets(["default=1.0"], ["a", "b"], goal=0.9),
            window_seconds=10.0,
        )
        for tenant, finish, qct in (
            ("a", 1.0, 0.5), ("b", 2.0, 3.0), ("a", 11.0, 2.0),
        ):
            tracker.observe(tenant, finish, qct)
        return tracker

    def test_emits_closed_kinds_in_deterministic_order(self):
        tracker = self.fed_tracker()
        report = tracker.finalize(makespan=20.0)
        bus = TelemetryBus()
        emitted = tracker.emit_events(bus, report)
        assert emitted == len(bus.events)
        kinds = [event.kind for event in bus.events]
        # samples, then windows, then one status per tenant
        assert kinds == (
            ["slo-sample"] * 3 + ["slo-window"] * 3 + ["slo-status"] * 2
        )
        assert set(kinds) <= EVENT_KINDS

    def test_archive_round_trip(self, tmp_path):
        tracker = self.fed_tracker()
        report = tracker.finalize(makespan=20.0)
        bus = TelemetryBus()
        tracker.emit_events(bus, report)
        path = str(tmp_path / "slo.jsonl")
        write_jsonl(bus, path)
        header, events = load_jsonl(path)
        assert header["version"] == 4
        assert events == bus.events

    def test_same_feed_same_digest(self):
        first = self.fed_tracker().finalize(makespan=20.0)
        second = self.fed_tracker().finalize(makespan=20.0)
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()


class TestServeCli:
    SERVE = ["serve", "--tenants", "1", "--queries", "12", "--seed", "11"]

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--slo", "default=nan"], "target_seconds"),
            (["--slo", "default=inf"], "target_seconds"),
            (["--slo", "default=5", "--slo-window", "nan"], "window_seconds"),
            (["--slo", "default=5", "--slo-window", "inf"], "window_seconds"),
        ],
    )
    def test_hostile_slo_input_is_one_error_line(self, flags, field, capsys):
        from repro.cli import main

        assert main(self.SERVE + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the run
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and field in captured.err

    def test_one_tenant_quantiles_are_the_summary_quantiles(self, tmp_path):
        """The SLO table and the serve summary print the same p50/p99."""
        import json

        from repro.cli import main

        slo_path, serve_path = tmp_path / "slo.json", tmp_path / "serve.json"
        assert main(self.SERVE + [
            "--cache-size", "0", "--slo", "default=5",
            "--slo-report", str(slo_path), "--json", str(serve_path),
        ]) == 0
        (row,) = json.loads(slo_path.read_text())["slo"]["tenants"]
        serve = json.loads(serve_path.read_text())
        assert row["completed"] == serve["completed"] == 12
        assert (row["p50"], row["p99"]) == (serve["p50_qct"], serve["p99_qct"])
