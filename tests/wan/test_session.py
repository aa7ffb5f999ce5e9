"""WanSession: the resumable shared-clock view of the batch scheduler."""

import math

import pytest

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.errors import TopologyError
from repro.obs import instrument
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler, WanSession


def two_sites(up_a=100.0, down_a=100.0, up_b=100.0, down_b=100.0):
    return WanTopology.from_sites(
        [Site("a", up_a, down_a), Site("b", up_b, down_b)]
    )


def drain(session):
    results = []
    while not session.drained:
        results.extend(session.advance())
    return results


class TestBatchParity:
    def test_session_run_to_drain_matches_simulate(self):
        transfers = [
            Transfer("a", "b", 100.0),
            Transfer("b", "a", 250.0, start_time=1.5),
            Transfer("a", "b", 50.0, start_time=3.0),
        ]
        batch = TransferScheduler(two_sites(up_a=10.0, up_b=25.0)).simulate(
            transfers
        )
        session = WanSession(TransferScheduler(two_sites(up_a=10.0, up_b=25.0)))
        session.submit(transfers)
        drain(session)
        incremental = session.all_results()
        assert len(incremental) == len(batch)
        for got, want in zip(incremental, batch):
            assert got.transfer is not want.transfer or True
            assert got.transfer.src == want.transfer.src
            assert got.transfer.dst == want.transfer.dst
            assert got.finish_time == want.finish_time  # bit-identical
            assert got.failed == want.failed

    def test_simulate_is_a_drained_session(self):
        # The batch entry point delegates to WanSession; spot-check a
        # contended max-min case stays exact.
        scheduler = TransferScheduler(two_sites(up_a=10.0))
        results = scheduler.simulate(
            [Transfer("a", "b", 50.0), Transfer("a", "b", 50.0)]
        )
        assert all(math.isclose(r.finish_time, 10.0) for r in results)


class TestIncrementalSubmission:
    def test_mid_flight_injection_contends(self):
        # Flow 1 alone would finish at 10s; injecting flow 2 at t=5
        # halves the uplink for the remainder.
        scheduler = TransferScheduler(two_sites(up_a=10.0))
        session = WanSession(scheduler)
        session.submit([Transfer("a", "b", 100.0)])
        done = session.advance(limit=5.0)
        assert done == [] and session.now == pytest.approx(5.0)
        session.submit([Transfer("a", "b", 100.0, start_time=5.0)])
        results = drain(session)
        finishes = sorted(r.finish_time for r in results)
        # First flow: 50 bytes left at t=5 at 5 B/s -> 15s.
        assert finishes[0] == pytest.approx(15.0)
        # Second flow: 50 bytes left at t=15, full link -> 20s.
        assert finishes[1] == pytest.approx(20.0)

    def test_submission_in_the_past_rejected(self):
        session = WanSession(TransferScheduler(two_sites(up_a=10.0)))
        session.submit([Transfer("a", "b", 100.0)])
        session.advance(limit=5.0)
        with pytest.raises(TopologyError):
            session.submit([Transfer("a", "b", 1.0, start_time=1.0)])

    def test_unknown_site_rejected(self):
        session = WanSession(TransferScheduler(two_sites()))
        with pytest.raises(TopologyError):
            session.submit([Transfer("a", "zzz", 1.0)])


class TestAdvanceSemantics:
    def test_stops_at_first_completion(self):
        scheduler = TransferScheduler(two_sites(up_a=10.0))
        session = WanSession(scheduler)
        session.submit([
            Transfer("a", "b", 50.0),
            Transfer("a", "b", 200.0),
        ])
        done = session.advance()
        assert len(done) == 1
        assert done[0].transfer.num_bytes == 50.0
        assert not session.drained
        rest = drain(session)
        assert len(rest) == 1

    def test_limit_respected_without_completion(self):
        scheduler = TransferScheduler(two_sites(up_a=10.0))
        session = WanSession(scheduler)
        session.submit([Transfer("a", "b", 100.0)])
        assert session.advance(limit=3.0) == []
        assert session.now == pytest.approx(3.0)

    def test_idle_session_snaps_clock_to_limit(self):
        session = WanSession(TransferScheduler(two_sites()))
        assert session.advance(limit=7.0) == []
        assert session.now == pytest.approx(7.0)
        assert session.drained
        # A submission at the snapped clock is legal.
        session.submit([Transfer("a", "b", 1.0, start_time=7.0)])

    def test_zero_byte_flow_completes_at_start(self):
        session = WanSession(TransferScheduler(two_sites()))
        session.submit([Transfer("a", "b", 0.0, start_time=2.0)])
        [result] = drain(session)
        assert result.finish_time == 2.0

    def test_drained_after_all_results(self):
        scheduler = TransferScheduler(two_sites(up_a=10.0))
        session = WanSession(scheduler)
        session.submit([Transfer("a", "b", 30.0)])
        drain(session)
        assert session.drained
        assert len(session.all_results()) == 1


class TestFinishedFlowsAreNotRevisited:
    def test_late_submit_returns_only_the_new_flow(self):
        """After 300 flows drained, one more submit + advance hands back
        that flow alone, and all_results() still lists all 301 in
        submission order."""
        session = WanSession(TransferScheduler(two_sites(up_a=1000.0)))
        for index in range(300):
            session.submit(
                [Transfer("a", "b", 10.0, start_time=float(index), tag=str(index))]
            )
            assert [r.transfer.tag for r in drain(session)] == [str(index)]
        session.submit([Transfer("b", "a", 5.0, start_time=400.0, tag="late")])
        [late] = session.advance()
        assert late.transfer.tag == "late"
        assert late.finish_time == pytest.approx(400.05)
        assert session.advance() == []
        everything = session.all_results()
        assert [r.transfer.tag for r in everything] == [
            str(index) for index in range(300)
        ] + ["late"]


class TestResultsArePlainPython:
    """The in-flight columns must not leak a column type into results:
    digests and JSON reports format ``finish_time`` and ``failed``."""

    TRANSFERS = [
        Transfer("a", "b", 100.0, tag="x"),
        Transfer("b", "a", 250.0, start_time=1.5, tag="y"),
        Transfer("a", "a", 40.0, start_time=0.5, tag="lan"),
        Transfer("a", "b", 0.0, start_time=2.0, tag="empty"),
        Transfer("a", "b", 500.0, start_time=3.0, tag="times-out"),
    ]

    def scheduler(self):
        return TransferScheduler(
            two_sites(up_a=10.0, up_b=25.0),
            faults=FaultSchedule(
                events=(FaultEvent("link-blackout", "a", 30.0, 40.0),)
            ),
            stall_timeout_seconds=2.0,
        )

    def check(self, results):
        assert [r.transfer.tag for r in results if r.failed] == ["times-out"]
        for result in results:
            assert type(result.finish_time) is float
            assert type(result.failed) is bool

    def test_advance_and_all_results(self):
        session = WanSession(self.scheduler())
        session.submit(self.TRANSFERS)
        returned = drain(session)
        assert len(returned) == len(self.TRANSFERS)
        self.check(returned)
        self.check(session.all_results())

    def test_simulate(self):
        self.check(self.scheduler().simulate(self.TRANSFERS))


def test_a_round_with_moving_parked_and_timed_out_flows():
    """A blackout at ``a`` from 1.0 to 4.6 under a 3 s stall timeout: two
    flows caught by it time out, one admitted inside it parks 2.3 s and
    resumes, two flows elsewhere keep moving.  Numbers as the flow-by-flow
    session (7d36f52) gave them."""
    scheduler = TransferScheduler(
        WanTopology.from_sites(
            [Site("a", 30.0, 40.0), Site("b", 20.0, 15.0), Site("c", 30.0, 25.0)]
        ),
        faults=FaultSchedule(
            events=(FaultEvent("link-blackout", "a", 1.0, 4.6),)
        ),
        stall_timeout_seconds=3.0,
    )
    with instrument.instrumented() as obs:
        session = WanSession(scheduler)
        session.submit(
            [
                Transfer("a", "b", 200.0, tag="times-out"),
                Transfer("b", "c", 300.0, tag="moves"),
                Transfer("c", "b", 40.0, start_time=1.3, tag="moves-too"),
                Transfer("a", "c", 50.0, start_time=2.3, tag="parks"),
                Transfer("c", "a", 35.0, start_time=0.7, tag="times-out-too"),
            ]
        )
        returned = drain(session)
    assert [(r.transfer.tag, r.finish_time, r.failed) for r in returned] == [
        ("moves-too", 3.966666666666667, False),
        ("times-out", 4.0, True),
        ("times-out-too", 4.0, True),
        ("parks", 8.6, False),
        ("moves", 16.5, False),
    ]
    assert session.filling_rounds == 9
    assert session.parked_seconds == 8.3
    ends = [
        (event.kind, event.attrs["tag"], event.t, event.attrs["parked_seconds"])
        for event in obs.telemetry.events
        if event.kind in ("flow-finish", "flow-fail")
    ]
    assert ends == [
        ("flow-finish", "moves-too", 3.966666666666667, 0.0),
        ("flow-fail", "times-out", 4.0, 3.0),
        ("flow-fail", "times-out-too", 4.0, 3.0),
        ("flow-finish", "parks", 8.6, 2.3),
        ("flow-finish", "moves", 16.5, 0.0),
    ]
    parks = [
        (event.attrs["tag"], event.t)
        for event in obs.telemetry.events
        if event.kind == "flow-park"
    ]
    assert parks == [("times-out", 1.0), ("times-out-too", 1.0), ("parks", 2.3)]


@pytest.mark.xfail(
    strict=True,
    reason="a round starting within 1e-12 before a capacity change reads "
    "the old capacity, and next_change_after(now + 1e-12) skips the change",
)
def test_limit_just_before_a_capacity_change_still_sees_it():
    from repro.wan.variability import BandwidthProfile

    scheduler = TransferScheduler(
        two_sites(up_a=1000.0, down_b=1000.0),
        profiles={"a": BandwidthProfile.steps([(0.0, 1.0), (0.25, 0.5)])},
    )
    [batch] = scheduler.simulate([Transfer("a", "b", 1000.0)])
    assert batch.finish_time == pytest.approx(1.75)
    session = WanSession(scheduler)
    session.submit([Transfer("a", "b", 1000.0)])
    assert session.advance(limit=0.24999999999999997) == []
    [result] = drain(session)
    assert result.finish_time == pytest.approx(1.75)  # today: 1.0
