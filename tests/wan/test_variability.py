"""Time-varying bandwidth tests."""

import math

import pytest

from repro.errors import TopologyError
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler
from repro.wan.variability import (
    BandwidthProfile,
    diurnal_profile,
    random_walk_profile,
)


class TestBandwidthProfile:
    def test_constant(self):
        profile = BandwidthProfile.constant(0.7)
        assert profile.multiplier_at(0.0) == 0.7
        assert profile.multiplier_at(1e9) == 0.7
        assert profile.next_change_after(0.0) is None

    def test_steps(self):
        profile = BandwidthProfile.steps([(0.0, 1.0), (10.0, 0.5), (20.0, 2.0)])
        assert profile.multiplier_at(5.0) == 1.0
        assert profile.multiplier_at(10.0) == 0.5
        assert profile.multiplier_at(15.0) == 0.5
        assert profile.multiplier_at(25.0) == 2.0
        assert profile.next_change_after(0.0) == 10.0
        assert profile.next_change_after(10.0) == 20.0
        assert profile.next_change_after(20.0) is None

    def test_next_change_bisect_agrees_with_a_linear_scan(self):
        """Both lookups — this one and the fault schedule's — must match
        the scan they replaced on every boundary, 1e-12 either side of
        it, and past the last epoch."""
        from repro.chaos.schedule import FaultEvent, FaultSchedule

        def scan(starts, now):
            return next((s for s in starts if s > now + 1e-12), None)

        profile = diurnal_profile(period=48.0, steps_per_period=48, num_periods=1)
        starts = [start for start, _ in profile.epochs]
        faults = FaultSchedule(
            events=tuple(
                FaultEvent("link-blackout", "a", start + 0.25, start + 0.5)
                for start in starts
            )
        )
        changes = sorted(
            {event.start for event in faults.events}
            | {event.end for event in faults.events}
        )
        for points, lookup in (
            (starts, profile.next_change_after),
            (changes, faults.next_change_after),
        ):
            probes = [p + d for p in points for d in (-1e-12, 0.0, 1e-12)]
            for now in probes + [-1.0, points[-1] + 5.0]:
                assert lookup(now) == scan(points, now), now
        assert profile.next_change_after(starts[-1]) is None

    def test_validation(self):
        with pytest.raises(TopologyError):
            BandwidthProfile(epochs=())
        with pytest.raises(TopologyError):
            BandwidthProfile(epochs=((5.0, 1.0),))  # must start at 0
        with pytest.raises(TopologyError):
            BandwidthProfile(epochs=((0.0, 1.0), (0.0, 0.5)))
        with pytest.raises(TopologyError):
            BandwidthProfile(epochs=((0.0, 0.0),))

    def test_diurnal_range_and_shape(self):
        profile = diurnal_profile(period=24.0, low=0.5, high=1.0,
                                  steps_per_period=24, num_periods=1)
        values = [m for _, m in profile.epochs]
        assert max(values) <= 1.0 + 1e-9
        assert min(values) >= 0.5 - 1e-9
        # Sinusoid: rises then falls within a period.
        assert values[6] > values[0]
        assert values[18] < values[6]

    def test_diurnal_validation(self):
        with pytest.raises(TopologyError):
            diurnal_profile(low=0.0)
        with pytest.raises(TopologyError):
            diurnal_profile(steps_per_period=1)

    def test_random_walk_bounded_and_deterministic(self):
        first = random_walk_profile(100.0, 10.0, low=0.4, high=1.0, seed=3)
        second = random_walk_profile(100.0, 10.0, low=0.4, high=1.0, seed=3)
        assert first == second
        for _, value in first.epochs:
            assert 0.4 - 1e-9 <= value <= 1.0 + 1e-9

    def test_random_walk_validation(self):
        with pytest.raises(TopologyError):
            random_walk_profile(0.0, 1.0)


class TestSchedulerWithProfiles:
    def topology(self):
        return WanTopology.from_sites(
            [Site("a", 10.0, 1e9), Site("b", 1e9, 1e9)]
        )

    def test_piecewise_integration_exact(self):
        # Uplink 10 B/s for 5s, then halved: 100 bytes need
        # 5s * 10 + (100 - 50) / 5 = 15s total.
        profile = BandwidthProfile.steps([(0.0, 1.0), (5.0, 0.5)])
        scheduler = TransferScheduler(self.topology(), profiles={"a": profile})
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert result.finish_time == pytest.approx(15.0, rel=1e-6)

    def test_capacity_recovery(self):
        # Degraded first 5s (rate 5), then full: 5*5 + 75/10 = 12.5s.
        profile = BandwidthProfile.steps([(0.0, 0.5), (5.0, 1.0)])
        scheduler = TransferScheduler(self.topology(), profiles={"a": profile})
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert result.finish_time == pytest.approx(12.5, rel=1e-6)

    def test_no_profile_behaves_as_before(self):
        plain = TransferScheduler(self.topology())
        constant = TransferScheduler(
            self.topology(), profiles={"a": BandwidthProfile.constant(1.0)}
        )
        transfers = [Transfer("a", "b", 100.0)]
        assert plain.makespan(transfers) == pytest.approx(
            constant.makespan(transfers)
        )

    def test_unknown_profile_site_rejected(self):
        with pytest.raises(TopologyError):
            TransferScheduler(
                self.topology(), profiles={"mars": BandwidthProfile.constant()}
            )

    def test_estimator_tracks_degraded_capacity(self):
        from repro.wan.estimator import BandwidthEstimator

        topology = self.topology()
        profile = BandwidthProfile.steps([(0.0, 0.5)])
        scheduler = TransferScheduler(topology, profiles={"a": profile})
        estimator = BandwidthEstimator(topology)
        results = scheduler.simulate([Transfer("a", "b", 100.0)])
        estimator.observe_transfers(results)
        # The estimator should learn ~5 B/s, half the nominal uplink.
        assert estimator.uplink("a") == pytest.approx(5.0, rel=1e-3)
