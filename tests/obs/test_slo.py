"""SLO tracking: sketch parity, burn-rate math, spec parsing, emission.

The Greenwald–Khanna sketch is held against the exact
:func:`repro.util.stats.percentile` on the same sample sets — the
sketch must land within its ``epsilon * n`` rank budget (the
sketch-vs-exact parity regression).  Tracker tests use hand-built
observation feeds so every count and burn rate is checkable by eye.
"""

import math
import random

import pytest

from repro.errors import ObservabilityError
from repro.obs.slo import (
    DEFAULT_GOAL,
    QuantileSketch,
    SloSpec,
    SloTracker,
    parse_slo_targets,
)
from repro.obs.telemetry import EVENT_KINDS, TelemetryBus, load_jsonl, write_jsonl
from repro.util.stats import percentile

TENANTS = ["tenant-00", "tenant-01", "tenant-02"]


class TestQuantileSketch:
    def test_exact_for_small_streams(self):
        sketch = QuantileSketch()
        sketch.extend([5.0, 1.0, 3.0])
        assert sketch.query(0.0) == 1.0
        assert sketch.query(1.0) == 5.0
        assert sketch.query(0.5) == 3.0

    def test_empty_queries_zero(self):
        assert QuantileSketch().query(0.5) == 0.0

    def test_rejects_non_finite(self):
        sketch = QuantileSketch()
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ObservabilityError, match="finite"):
                sketch.add(bad)

    def test_rejects_bad_epsilon(self):
        for epsilon in (0.0, -0.1, 0.5, 1.0):
            with pytest.raises(ObservabilityError, match="epsilon"):
                QuantileSketch(epsilon)

    def test_parity_with_exact_percentile(self):
        """Sketch-vs-exact parity: rank error stays within epsilon*n.

        A skewed latency-like sample (lognormal-ish via exp of normals)
        mirrors serve QCT distributions; for each queried quantile the
        sketch answer must sit between the exact percentiles one epsilon
        below and above.
        """
        rng = random.Random(13)
        values = [math.exp(rng.gauss(0.0, 1.5)) for _ in range(5000)]
        epsilon = 0.01
        sketch = QuantileSketch(epsilon)
        sketch.extend(values)
        for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            got = sketch.query(q)
            low = percentile(values, 100.0 * (q - epsilon))
            high = percentile(values, 100.0 * (q + epsilon))
            assert low <= got <= high, (q, low, got, high)

    def test_sublinear_memory(self):
        sketch = QuantileSketch(0.01)
        sketch.extend(float(value % 997) for value in range(5000))
        assert sketch.count == 5000
        assert sketch.retained < 600

    def test_deterministic_for_same_input_order(self):
        values = [math.sin(i) * 10.0 for i in range(2000)]
        first = QuantileSketch()
        first.extend(values)
        second = QuantileSketch()
        second.extend(values)
        assert first.digest_fields() == second.digest_fields()

    def test_out_of_range_quantiles_clamp(self):
        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        assert sketch.query(-0.5) == 1.0
        assert sketch.query(1.5) == 3.0


class TestSloSpec:
    def test_rejects_non_positive_target(self):
        with pytest.raises(ObservabilityError, match="positive"):
            SloSpec(tenant="t", target_seconds=0.0)

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
        assert set(tracker._windows) == {("a", 0), ("a", 1)}

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
