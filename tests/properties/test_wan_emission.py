"""The WAN session's telemetry, held to the emitters it replaced.

``WanSession`` emits link samples, capacity epochs, park episodes and
flow ends through ``_emit_round_samples``, ``_emit_link_sample`` and
``_emit_flow_end``; ``tests/wan/reference_emission.py`` keeps those three
as they were.  Over generated sessions of three kinds — static (no
profiles, no faults: one capacity epoch per site), stepped bandwidth
profiles, and link blackouts that park flows under a finite stall
timeout (parks and failures) — each submitted in one or two batches with
a limited ``advance`` between them, both emitters give the same event
stream: kind, ``t`` and attrs, in order, down to ``repr`` (so ints stay
ints, -0.0 stays -0.0 and attrs keep their insertion order).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.obs import instrument
from repro.obs.telemetry import TelemetryBus
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler, WanSession
from repro.wan.variability import BandwidthProfile
from tests.wan.reference_emission import ReferenceEmissionSession

SITES = "abcd"
#: Times on a quarter-second grid, so flows start on window and epoch
#: boundaries often enough to matter.
quarters = st.integers(min_value=0, max_value=40).map(lambda q: q / 4.0)
capacities = st.floats(min_value=1e3, max_value=1e5)


@st.composite
def sessions(draw):
    """``(kind, scheduler kwargs, batches of transfers, first limit)``."""
    kind = draw(st.sampled_from(["static", "profiled", "blackout"]))
    names = SITES[: draw(st.integers(min_value=2, max_value=4))]
    site = st.sampled_from(names)
    kwargs = dict(
        topology=WanTopology.from_sites(
            [Site(name, draw(capacities), draw(capacities)) for name in names]
        ),
        lan_bps=1e6,
    )
    if kind == "profiled":
        kwargs["profiles"] = {
            name: BandwidthProfile.steps(
                [(0.0, 1.0)] + sorted(steps.items())
            )
            for name, steps in draw(
                st.dictionaries(
                    site,
                    st.dictionaries(
                        quarters.filter(lambda t: t > 0),
                        st.floats(min_value=0.25, max_value=2.0),
                        min_size=1,
                        max_size=3,
                    ),
                    min_size=1,
                    max_size=2,
                )
            ).items()
        }
    elif kind == "blackout":
        windows = draw(
            st.lists(
                st.tuples(site, quarters, st.integers(min_value=1, max_value=16)),
                min_size=1,
                max_size=2,
            )
        )
        kwargs["faults"] = FaultSchedule(
            events=tuple(
                FaultEvent("link-blackout", where, start, start + length / 4.0)
                for where, start, length in windows
            )
        )
        kwargs["stall_timeout_seconds"] = draw(st.sampled_from([0.5, 1.0, 2.5]))
    flows = draw(
        st.lists(
            st.tuples(
                site,
                site,
                st.one_of(st.just(0.0), st.floats(min_value=1e3, max_value=1e5)),
                quarters,
            ),
            min_size=1,
            max_size=10,
        )
    )
    transfers = [
        Transfer(src, dst, size, start_time=start, tag=f"f{index}")
        for index, (src, dst, size, start) in enumerate(flows)
    ]
    cut = draw(st.integers(min_value=0, max_value=len(transfers)))
    first, second = transfers[:cut], transfers[cut:]
    limit = max([0.0, *(transfer.start_time for transfer in first)])
    return kind, kwargs, [first, second], limit


def event_stream(session_class, kwargs, batches, limit):
    """Every event one session emits: the first batch run up to ``limit``,
    the second submitted there (its starts no earlier), then drained."""
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        session = session_class(TransferScheduler(**kwargs))
        first, second = batches
        session.submit(first)
        session.advance(limit=limit, stop_on_completion=False)
        session.submit(
            [
                Transfer(t.src, t.dst, t.num_bytes, max(t.start_time, session.now), t.tag)
                for t in second
            ]
        )
        session.advance(stop_on_completion=False)
        session.flush_telemetry()
    return [(event.kind, event.t, event.attrs) for event in bus.events]


TOPOLOGY = WanTopology.from_sites([Site("a", 1e4, 1e4), Site("b", 2e4, 1e4)])
#: A blackout at ``a`` from 1 s to 5 s with a 2 s stall timeout: the big
#: flow parks at 1 s and fails at 3 s; the small one finishes first.
BLACKOUT = dict(
    topology=TOPOLOGY,
    lan_bps=1e6,
    faults=FaultSchedule(events=(FaultEvent("link-blackout", "a", 1.0, 5.0),)),
    stall_timeout_seconds=2.0,
)


@settings(max_examples=200, deadline=None)
@given(drawn=sessions())
@example(
    drawn=(
        "blackout",
        BLACKOUT,
        [[Transfer("a", "b", 5e4, tag="big"), Transfer("b", "a", 5e3, tag="small")], []],
        0.0,
    )
)
@example(
    drawn=(
        "static",
        dict(topology=TOPOLOGY, lan_bps=1e6),
        [[Transfer("a", "b", 3e4, tag="x")], [Transfer("b", "a", 2e4, 0.5, "y")]],
        0.5,
    )
)
def test_event_streams_equal_the_reference_emitters(drawn):
    kind, kwargs, batches, limit = drawn
    events = event_stream(WanSession, kwargs, batches, limit)
    want = event_stream(ReferenceEmissionSession, kwargs, batches, limit)
    assert repr(events) == repr(want)
    epochs = [attrs for event_kind, _, attrs in events if event_kind == "capacity-epoch"]
    if kind == "static":
        # The multiplier never leaves 1.0: one epoch per site, at most.
        sites = [attrs["site"] for attrs in epochs]
        assert len(sites) == len(set(sites))
        assert all(attrs["multiplier"] == 1.0 for attrs in epochs)


def test_the_blackout_example_parks_and_fails_a_flow():
    events = event_stream(
        WanSession,
        BLACKOUT,
        [[Transfer("a", "b", 5e4, tag="big"), Transfer("b", "a", 5e3, tag="small")], []],
        0.0,
    )
    kinds = [kind for kind, _, _ in events]
    assert kinds.count("flow-park") == 1
    assert [attrs["tag"] for kind, _, attrs in events if kind == "flow-fail"] == ["big"]
    assert [attrs["multiplier"] for kind, _, attrs in events if kind == "capacity-epoch"] == [
        1.0, 1.0, 0.0,
    ]
