"""Fault-aware WAN simulator tests + bugfix regression pins.

Covers the chaos integration (blackout parking, stall timeouts) and two
fixed bugs: ``serial_time`` ignoring propagation delay and bandwidth
profiles, and O(n²) flow admission.
"""

import math
import time

import pytest

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.errors import TopologyError
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler
from repro.wan.variability import BandwidthProfile


def two_sites():
    return WanTopology.from_sites(
        [Site("a", 10.0, 100.0), Site("b", 100.0, 10.0)]
    )


def blackout(start, end, site="a"):
    return FaultSchedule(
        events=(FaultEvent("link-blackout", site, start, end),)
    )


class TestParking:
    def test_blackout_parks_and_resumes(self):
        # 10s transfer, links dark during [2, 7): finish slips to 15.
        scheduler = TransferScheduler(two_sites(), faults=blackout(2.0, 7.0))
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert not result.failed
        assert result.finish_time == pytest.approx(15.0)
        assert result.delivered_bytes == 100.0

    def test_parking_is_not_a_stall_error(self):
        # All rates zero at t=2 must NOT raise while capacity returns.
        scheduler = TransferScheduler(two_sites(), faults=blackout(0.0, 5.0))
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert result.finish_time == pytest.approx(15.0)

    def test_zero_byte_transfer_during_blackout(self):
        scheduler = TransferScheduler(two_sites(), faults=blackout(0.0, 5.0))
        [result] = scheduler.simulate([Transfer("a", "b", 0.0, start_time=1.0)])
        assert result.finish_time == 1.0
        assert not result.failed

    def test_stall_timeout_fails_the_attempt(self):
        scheduler = TransferScheduler(
            two_sites(),
            faults=blackout(0.0, math.inf),
            stall_timeout_seconds=3.0,
        )
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert result.failed
        assert result.finish_time == pytest.approx(3.0)
        assert result.delivered_bytes == 0.0
        assert result.throughput_bps == 0.0

    def test_parked_time_accumulates_across_windows(self):
        # Two 2s blackouts with recovery between; timeout 3s never trips
        # (cumulative parked time 4s > 3s means the SECOND window kills
        # it mid-way at 1s in: parked 2 + 1 = 3).
        faults = FaultSchedule(
            events=(
                FaultEvent("link-blackout", "a", 1.0, 3.0),
                FaultEvent("link-blackout", "a", 4.0, 6.0),
            )
        )
        scheduler = TransferScheduler(
            two_sites(), faults=faults, stall_timeout_seconds=3.0
        )
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert result.failed
        assert result.finish_time == pytest.approx(5.0)

    def test_degrade_slows_without_parking(self):
        faults = FaultSchedule(
            events=(FaultEvent("link-degrade", "a", 0.0, 100.0, severity=0.5),)
        )
        scheduler = TransferScheduler(two_sites(), faults=faults)
        [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
        assert not result.failed
        assert result.finish_time == pytest.approx(20.0)

    def test_unknown_fault_site_rejected(self):
        with pytest.raises(TopologyError):
            TransferScheduler(two_sites(), faults=blackout(0.0, 1.0, site="zzz"))

    def test_bad_stall_timeout_rejected(self):
        with pytest.raises(TopologyError):
            TransferScheduler(two_sites(), stall_timeout_seconds=0.0)

    def test_benign_simulation_unchanged_by_chaos_plumbing(self):
        plain = TransferScheduler(two_sites())
        chaotic = TransferScheduler(
            two_sites(), faults=FaultSchedule.empty(),
            stall_timeout_seconds=30.0,
        )
        transfers = [
            Transfer("a", "b", 100.0),
            Transfer("a", "b", 50.0, start_time=3.0),
            Transfer("b", "a", 80.0, start_time=1.0),
        ]
        for left, right in zip(
            plain.simulate(transfers), chaotic.simulate(transfers)
        ):
            assert left.finish_time == right.finish_time


class TestSchedulerIsStateless:
    def test_back_to_back_simulations_park_like_fresh_schedulers(self):
        """Park-episode bookkeeping lives on the per-run session: a
        simulation that ends with flows parked (stall-timeout failures)
        leaves nothing behind for the next one on the same scheduler."""
        from repro.obs import instrument

        def make():
            return TransferScheduler(
                two_sites(), faults=blackout(1.0, 6.0),
                stall_timeout_seconds=2.0,
            )

        batch = [Transfer("a", "b", 100.0), Transfer("a", "b", 40.0)]

        def parks(scheduler, runs):
            with instrument.instrumented() as obs:
                results = [scheduler.simulate(batch) for _ in range(runs)]
            assert all(result.failed for result in results[0])
            return [
                (event.t, dict(event.attrs))
                for event in obs.telemetry.events
                if event.kind == "flow-park"
            ]

        assert not hasattr(make(), "_had_parked")
        shared = parks(make(), runs=2)
        fresh = parks(make(), runs=1) + parks(make(), runs=1)
        assert shared and shared == fresh


class TestSerialTimeRegression:
    """``serial_time`` must honour propagation delay and capacity
    profiles, like the fair simulator it is the baseline for."""

    def test_includes_propagation_delay(self):
        scheduler = TransferScheduler(two_sites(), propagation_seconds=0.5)
        assert scheduler.serial_time(
            [Transfer("a", "b", 100.0)]
        ) == pytest.approx(10.5)

    def test_integrates_bandwidth_profile(self):
        # Full rate for 5s (50 B), then half rate: 50 B more takes 10s.
        profile = BandwidthProfile.steps([(0.0, 1.0), (5.0, 0.5)])
        scheduler = TransferScheduler(two_sites(), profiles={"a": profile})
        assert scheduler.serial_time(
            [Transfer("a", "b", 100.0)]
        ) == pytest.approx(15.0)

    def test_chains_transfers_through_profile(self):
        profile = BandwidthProfile.steps([(0.0, 1.0), (5.0, 0.5)])
        scheduler = TransferScheduler(two_sites(), profiles={"a": profile})
        serial = scheduler.serial_time(
            [Transfer("a", "b", 100.0), Transfer("a", "b", 50.0)]
        )
        # Second transfer runs [15, 25] entirely at half rate.
        assert serial == pytest.approx(25.0)

    def test_parks_through_fault_windows(self):
        scheduler = TransferScheduler(two_sites(), faults=blackout(2.0, 7.0))
        assert scheduler.serial_time(
            [Transfer("a", "b", 100.0)]
        ) == pytest.approx(15.0)

    def test_intra_site_skips_propagation(self):
        scheduler = TransferScheduler(
            two_sites(), propagation_seconds=0.5, lan_bps=100.0
        )
        assert scheduler.serial_time(
            [Transfer("a", "a", 1000.0)]
        ) == pytest.approx(10.0)

    def test_permanent_blackout_raises(self):
        scheduler = TransferScheduler(
            two_sites(), faults=blackout(0.0, math.inf)
        )
        with pytest.raises(TopologyError):
            scheduler.serial_time([Transfer("a", "b", 100.0)])

    def test_remains_upper_bound_of_fair_makespan(self):
        profile = BandwidthProfile.steps([(0.0, 1.0), (4.0, 0.5)])
        scheduler = TransferScheduler(two_sites(), profiles={"a": profile})
        transfers = [
            Transfer("a", "b", 60.0),
            Transfer("a", "b", 40.0, start_time=1.0),
        ]
        assert scheduler.serial_time(transfers) >= (
            scheduler.makespan(transfers) - 1e-9
        )


class TestManyFlowsAdmission:
    """Admission walks a cursor over the start-sorted queue (O(n) total)
    instead of popping the head of a list (O(n²) element shifts)."""

    def test_many_staggered_flows_admit_quickly(self):
        topology = WanTopology.from_sites(
            [Site("a", 1e6, 1e6), Site("b", 1e6, 1e6)]
        )
        scheduler = TransferScheduler(topology)
        # Fully staggered: each flow admitted in its own event round —
        # the admission-heavy worst case for the old list-pop code path.
        transfers = [
            Transfer("a", "b", 10.0, start_time=float(i)) for i in range(5000)
        ]
        started = time.perf_counter()  # lint: allow[R001] — wall-clock perf regression bound
        results = scheduler.simulate(transfers)
        elapsed = time.perf_counter() - started  # lint: allow[R001]
        assert len(results) == 5000
        assert results[-1].finish_time == pytest.approx(4999.00001)
        # Generous CI bound: ~60ms locally; fails loudly on an O(n²) blowup.
        assert elapsed < 5.0

    def test_admission_order_respects_start_times(self):
        scheduler = TransferScheduler(two_sites())
        transfers = [
            Transfer("a", "b", 10.0, start_time=5.0),
            Transfer("a", "b", 10.0, start_time=0.0),
        ]
        first, second = scheduler.simulate(transfers)
        # Results come back in input order; the late starter finishes last.
        assert second.finish_time < first.finish_time
