"""What moving the per-run machinery onto ``WanSession`` must not change.

``golden/session_events.json`` was captured at 2081b01, when the filling
loop lived on the session and everything it called on the scheduler.  It
holds the full telemetry stream and the results of one small scenario
driven through ``WanSession`` directly, so emission order, coalesced
link-sample segments, capacity epochs, park episode starts and
flows-sample counts are held bit-for-bit.
"""

import json
from pathlib import Path

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.obs import instrument
from repro.obs.telemetry import _is_wall_attr
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler, WanSession
from repro.wan.variability import BandwidthProfile

GOLDEN = Path(__file__).parent / "golden" / "session_events.json"


def run_scenario():
    """Four sites; a blackout at ``a`` with a 3 s stall timeout (one flow
    caught by it fails, one admitted late in the window parks and
    resumes), a profile step at ``b``, a zero-byte and an intra-site
    flow, and a second ``submit()`` between two limited ``advance()``
    calls.  Returns ``(masked events, results in submission order)``."""
    topology = WanTopology.from_sites(
        [
            Site("a", 10.0, 40.0),
            Site("b", 20.0, 15.0),
            Site("c", 30.0, 25.0),
            Site("d", 12.0, 18.0),
        ]
    )
    scheduler = TransferScheduler(
        topology,
        lan_bps=1000.0,
        profiles={"b": BandwidthProfile.steps([(0.0, 1.0), (3.0, 0.5)])},
        propagation_seconds=0.25,
        faults=FaultSchedule(
            events=(FaultEvent("link-blackout", "a", 2.0, 6.0),)
        ),
        stall_timeout_seconds=3.0,
    )
    returned = []
    with instrument.instrumented() as obs:
        session = WanSession(scheduler)
        session.submit(
            [
                Transfer("a", "b", 60.0, tag="fails"),
                Transfer("c", "b", 90.0, tag="q0"),
                Transfer("c", "d", 45.0, start_time=0.5, tag="q0"),
                Transfer("b", "b", 500.0, start_time=0.75, tag="lan"),
                Transfer("d", "c", 0.0, start_time=0.4, tag="empty"),
            ]
        )
        returned.extend(session.advance(limit=1.0))
        session.submit(
            [
                Transfer("a", "d", 30.0, start_time=4.25, tag="parks"),
                Transfer("b", "c", 70.0, start_time=1.0, tag="q1"),
                Transfer("d", "b", 25.0, start_time=2.5, tag="q1"),
            ]
        )
        returned.extend(session.advance(limit=2.5))
        while not session.drained:
            returned.extend(session.advance())
        session.flush_telemetry()
    events = [
        [
            event.kind,
            event.t,
            {
                key: value
                for key, value in sorted(event.attrs.items())
                if not _is_wall_attr(key)
            },
        ]
        for event in obs.telemetry.events
    ]

    def rows(results):
        return [[r.transfer.tag, r.finish_time, r.failed] for r in results]

    return {
        "events": events,
        "returned": rows(returned),
        "all_results": rows(session.all_results()),
        "filling_rounds": session.filling_rounds,
        "parked_seconds": session.parked_seconds,
    }


def test_scenario_exercises_what_it_claims():
    observed = run_scenario()
    kinds = [kind for kind, _t, _attrs in observed["events"]]
    for kind in (
        "flow-start", "flow-finish", "flow-fail", "flow-park",
        "capacity-epoch", "link-sample", "flows-sample",
    ):
        assert kind in kinds
    by_tag = {tag: failed for tag, _finish, failed in observed["all_results"]}
    assert by_tag["fails"] and not by_tag["parks"]
    parked = [
        attrs["tag"] for kind, _t, attrs in observed["events"]
        if kind == "flow-park"
    ]
    assert sorted(parked) == ["fails", "parks"]


def test_stream_and_results_equal_the_parent_commit():
    observed = json.loads(json.dumps(run_scenario()))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert observed["events"] == golden["events"]
    assert observed == golden
