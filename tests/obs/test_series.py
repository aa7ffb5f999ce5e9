"""Time-series derivations from telemetry event streams."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.series import (
    TimeSeries,
    cumulative_bytes,
    estimator_error_series,
    estimator_samples,
    fault_windows,
    flow_occupancy,
    link_utilization,
    mean_abs_estimator_error,
    rollup,
    sim_horizon,
    site_busy_fraction,
    stage_intervals,
)
from repro.obs.telemetry import TelemetryEvent


def _event(seq, kind, t=None, **attrs):
    return TelemetryEvent(seq=seq, kind=kind, t=t, attrs=attrs)


class TestTimeSeries:
    def test_integral_and_mean(self):
        series = TimeSeries()
        series.add(0.0, 2.0, 10.0)
        series.add(2.0, 2.0, 30.0)
        assert series.integral() == pytest.approx(80.0)
        assert series.time_weighted_mean() == pytest.approx(20.0)
        assert series.end == pytest.approx(4.0)

    def test_time_weighted_percentile(self):
        series = TimeSeries()
        series.add(0.0, 9.0, 1.0)   # value 1 for 90% of the time
        series.add(9.0, 1.0, 100.0)
        assert series.percentile(0.5) == pytest.approx(1.0)
        assert series.percentile(0.99) == pytest.approx(100.0)
        assert series.maximum() == pytest.approx(100.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ObservabilityError):
            TimeSeries().add(0.0, -1.0, 1.0)

    def test_bucketed_weights_by_overlap(self):
        series = TimeSeries()
        series.add(0.0, 1.0, 4.0)
        series.add(1.0, 3.0, 0.0)
        buckets = series.bucketed(2, end=4.0)
        # Bucket 0 covers [0,2): value 4 for 1s, 0 for 1s -> mean 2.
        assert buckets == [pytest.approx(2.0), pytest.approx(0.0)]

    def test_rollup_keys(self):
        series = TimeSeries()
        series.add(0.0, 1.0, 1.0)
        assert set(rollup(series)) == {"mean", "p50", "p99", "max"}


class TestLinkUtilization:
    def test_ratio_and_blackout(self):
        events = [
            _event(0, "link-sample", t=0.0, site="a", direction="up",
                   used_bps=50.0, capacity_bps=100.0, flows=1, dt=2.0),
            _event(1, "link-sample", t=2.0, site="a", direction="up",
                   used_bps=0.0, capacity_bps=0.0, flows=1, dt=1.0),
        ]
        series = link_utilization(events)[("a", "up")]
        assert [value for _, _, value in series.segments] == [0.5, 0.0]

    def test_sim_horizon(self):
        events = [
            _event(0, "query-start", t=0.0),
            _event(1, "plan"),  # t=None must not break the max
            _event(2, "query-finish", t=7.5, qct=7.5),
        ]
        assert sim_horizon(events) == pytest.approx(7.5)


class TestStages:
    EVENTS = [
        _event(0, "stage-finish", t=2.0, site="a", stage="map",
               job="job-0", start=0.0),
        _event(1, "stage-finish", t=5.0, site="a", stage="reduce",
               job="job-0", start=3.0),
        _event(2, "stage-finish", t=4.0, site="b", stage="map",
               job="job-0", start=0.0),
    ]

    def test_intervals(self):
        intervals = stage_intervals(self.EVENTS)
        assert len(intervals) == 3
        assert intervals[0] == {
            "site": "a", "stage": "map", "job": "job-0",
            "start": 0.0, "end": 2.0,
        }

    def test_busy_fraction_merges_overlap(self):
        # Site a busy [0,2] and [3,5] of a 5s horizon -> 0.8.
        fractions = site_busy_fraction(self.EVENTS, horizon=5.0)
        assert fractions["a"] == pytest.approx(0.8)
        assert fractions["b"] == pytest.approx(0.8)


class TestOccupancyAndBytes:
    def test_flow_occupancy(self):
        events = [
            _event(0, "flows-sample", t=0.0, active=3, parked=1, lan=0, dt=2.0),
        ]
        active, parked = flow_occupancy(events)
        assert active.integral() == pytest.approx(6.0)
        assert parked.integral() == pytest.approx(2.0)

    def test_cumulative_bytes_retry_cancels_fail(self):
        events = [
            _event(0, "flow-finish", t=1.0, src="a", dst="b",
                   num_bytes=100.0, wan=True),
            _event(1, "flow-fail", t=2.0, src="a", dst="b",
                   num_bytes=50.0, parked_seconds=0.0),
            _event(2, "retry", t=2.0, src="a", dst="b", num_bytes=50.0,
                   attempt=1, backoff_seconds=0.5, resume_at=2.5),
            _event(3, "flow-fail", t=4.0, src="a", dst="b",
                   num_bytes=50.0, parked_seconds=0.0),
        ]
        delivered, abandoned = cumulative_bytes(events)
        assert delivered == [(1.0, 100.0)]
        # The t=2 failure was retried; only the t=4 failure is abandoned.
        assert abandoned == [(4.0, 50.0)]

    def test_lan_flows_not_delivered(self):
        events = [
            _event(0, "flow-finish", t=1.0, src="a", dst="a",
                   num_bytes=100.0, wan=False),
        ]
        delivered, abandoned = cumulative_bytes(events)
        assert delivered == [] and abandoned == []


class TestEstimator:
    def test_relative_error(self):
        events = [
            _event(0, "estimator-sample", t=1.0, site="a", direction="up",
                   observed_bps=90.0, estimate_bps=110.0, true_bps=100.0),
            _event(1, "estimator-sample", t=2.0, site="a", direction="down",
                   observed_bps=90.0, estimate_bps=80.0, true_bps=100.0),
        ]
        series = estimator_error_series(events)
        assert series["up"] == [(1.0, pytest.approx(0.1))]
        assert series["down"] == [(2.0, pytest.approx(-0.2))]
        assert mean_abs_estimator_error(series) == pytest.approx(0.15)

    def test_truthless_samples_skipped(self):
        events = [
            _event(0, "estimator-sample", t=1.0, site="a", direction="up",
                   observed_bps=90.0, estimate_bps=110.0, true_bps=None),
        ]
        assert estimator_samples(events)[0].relative_error is None
        assert estimator_error_series(events) == {}
        assert mean_abs_estimator_error({}) is None


class TestFaultWindows:
    def test_decode_with_open_end(self):
        events = [
            _event(0, "fault-window", t=5.0, fault="site-outage", site="a",
                   start=5.0, end=None, severity=0.0),
            _event(1, "fault-window", t=1.0, fault="link-degrade", site="b",
                   start=1.0, end=3.0, severity=0.5),
        ]
        windows = fault_windows(events)
        assert windows[0]["end"] is None
        assert windows[1] == {
            "fault": "link-degrade", "site": "b",
            "start": 1.0, "end": 3.0, "severity": 0.5,
        }


class TestServeArchiveRollups:
    """Derived series over a real multi-tenant serve archive.

    The contended serve fixture from the critical-path tests doubles as
    the rollup fixture here: concurrent tenants share WAN links, so flow
    occupancy, link utilization, and the delivered-bytes curve all carry
    signal (not just the single-query shapes the synthetic tests pin).
    """

    @pytest.fixture(scope="class")
    def serve_events(self):
        from tests.obs.test_critpath import run_recorded

        bus, report = run_recorded()
        return bus.events, report

    def test_flow_occupancy_shows_concurrency(self, serve_events):
        events, _ = serve_events
        active, parked = flow_occupancy(events)
        assert active.maximum() > 1.0  # tenants actually overlapped
        assert active.integral() > 0.0
        assert parked.maximum() >= 0.0
        assert set(rollup(active)) == {"mean", "p50", "p99", "max"}

    def test_delivered_bytes_match_flow_finishes(self, serve_events):
        events, _ = serve_events
        delivered, abandoned = cumulative_bytes(events)
        assert abandoned == []  # chaos-free serve run abandons nothing
        totals = [value for _t, value in delivered]
        assert totals == sorted(totals)  # cumulative curve never dips
        finished = sum(
            float(event.attrs["num_bytes"])
            for event in events
            if event.kind == "flow-finish" and event.attrs.get("wan")
        )
        assert totals[-1] == pytest.approx(finished)

    def test_delivered_bytes_cover_serve_report(self, serve_events):
        # The archive sees every WAN flow (queries plus data movement),
        # so its curve bounds the report's query-attributed bytes.
        events, report = serve_events
        delivered, _ = cumulative_bytes(events)
        assert delivered[-1][1] >= report.total_wan_bytes - 1e-6
        assert report.total_wan_bytes > 0.0

    def test_link_utilization_bounded(self, serve_events):
        events, _ = serve_events
        utilization = link_utilization(events)
        assert utilization  # WAN links were exercised
        for series in utilization.values():
            assert 0.0 <= series.maximum() <= 1.0 + 1e-9

    def test_sim_horizon_covers_last_finish(self, serve_events):
        events, _ = serve_events
        last_finish = max(
            float(event.t)
            for event in events
            if event.kind == "serve-finish"
        )
        assert sim_horizon(events) >= last_finish
