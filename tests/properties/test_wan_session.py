"""The ``WanSession`` contract, stated as properties over generated runs.

Up to 12 flows over up to 4 sites with random starts and sizes (zero-byte
and intra-site flows included), optionally under link fault windows, a
finite stall timeout and stepped bandwidth profiles.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.obs import instrument
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import (
    _EPSILON_BYTES,
    Transfer,
    TransferScheduler,
    WanSession,
)
from repro.wan.variability import BandwidthProfile

SITES = "abcd"
#: Times on a quarter-second grid, so flows start exactly on window and
#: epoch boundaries often enough to matter.
quarters = st.integers(min_value=0, max_value=80).map(lambda q: q / 4.0)
capacities = st.floats(min_value=1e3, max_value=1e5)


@st.composite
def scenarios(draw, failures=True):
    """``(scheduler kwargs, transfers in submission order)``."""
    names = SITES[: draw(st.integers(min_value=2, max_value=4))]
    site = st.sampled_from(names)
    topology = WanTopology.from_sites(
        [Site(name, draw(capacities), draw(capacities)) for name in names]
    )
    windows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["link-blackout", "link-degrade"]),
                site,
                quarters,
                st.integers(min_value=1, max_value=24).map(lambda q: q / 4.0),
                st.floats(min_value=0.5, max_value=0.9),
            ),
            max_size=3,
        )
    )
    faults = FaultSchedule(
        events=tuple(
            FaultEvent(kind, where, start, start + length, severity)
            for kind, where, start, length, severity in windows
        )
    )
    profiles = {
        name: BandwidthProfile.steps(
            [(0.0, 1.0)]
            + [(at, multiplier) for at, multiplier in sorted(steps.items())]
        )
        for name, steps in draw(
            st.dictionaries(
                site,
                st.dictionaries(
                    quarters.filter(lambda t: t > 0),
                    st.floats(min_value=0.5, max_value=1.5),
                    min_size=1,
                    max_size=3,
                ),
                max_size=2,
            )
        ).items()
    }
    timeout = (
        draw(st.sampled_from([math.inf, 0.5, 2.0, 5.0])) if failures else math.inf
    )
    kwargs = dict(
        topology=topology,
        lan_bps=1e6,
        profiles=profiles,
        propagation_seconds=draw(st.sampled_from([0.0, 0.125])),
        faults=faults if windows else None,
        stall_timeout_seconds=timeout,
    )
    flows = draw(
        st.lists(
            st.tuples(
                site,
                site,
                st.one_of(st.just(0.0), st.floats(min_value=1e3, max_value=1e6)),
                quarters,
            ),
            min_size=1,
            max_size=12,
        )
    )
    transfers = [
        Transfer(src, dst, size, start_time=start, tag=f"f{index}")
        for index, (src, dst, size, start) in enumerate(flows)
    ]
    return kwargs, transfers


def rows(results):
    return [(r.transfer.tag, r.finish_time, r.failed) for r in results]


def advance_to(session, limit):
    """Every completion up to ``limit``, as the serve loop collects them.

    A limit that falls within a nanosecond *before* a capacity change
    point is discarded: the round that starts there reads the old
    capacity while ``next_change_after(now + 1e-12)`` already looks past
    the change (tests/wan/test_session.py pins that defect).
    """
    scheduler = session.scheduler
    changes = [start for p in scheduler.profiles.values() for start in p._starts]
    if scheduler.faults is not None:
        changes.extend(scheduler.faults._change_points)
    assume(not any(0.0 < change - limit < 1e-9 for change in changes))
    returned = []
    while True:
        done = session.advance(limit=limit)
        if not done:
            return returned
        returned.extend(done)


def drain(session):
    returned = []
    while not session.drained:
        returned.extend(session.advance())
    return returned


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_drained_session_is_exactly_simulate(scenario):
    kwargs, transfers = scenario
    batch = TransferScheduler(**kwargs).simulate(transfers)
    session = WanSession(TransferScheduler(**kwargs))
    session.submit(transfers)
    returned = drain(session)
    assert rows(session.all_results()) == rows(batch)
    assert [r.transfer.tag for r in batch] == [t.tag for t in transfers]
    # advance() hands every flow back exactly once.
    assert sorted(rows(returned)) == sorted(rows(batch))


@settings(max_examples=150, deadline=None)
@given(
    scenario=scenarios(),
    cuts=st.lists(st.integers(min_value=1, max_value=11), max_size=3),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
    ),
    extra_limits=st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=4),
)
def test_split_submission_with_limits_agrees_with_simulate(
    scenario, cuts, fractions, extra_limits
):
    kwargs, transfers = scenario
    # Chunks of the start-ordered flows, so a later chunk never starts
    # before an earlier one and can be submitted after it.
    ordered = sorted(transfers, key=lambda t: t.start_time)
    bounds = sorted({cut for cut in cuts if cut < len(ordered)})
    chunks = [
        ordered[low:high]
        for low, high in zip([0] + bounds, bounds + [len(ordered)])
    ]
    batch = TransferScheduler(**kwargs).simulate(ordered)

    session = WanSession(TransferScheduler(**kwargs))
    returned = []
    clock = 0.0
    for chunk, fraction in zip(chunks, fractions):
        # Anywhere between the previous submission and the chunk's first
        # start, visiting the arbitrary limits that fall before it.
        submit_at = max(clock, fraction * chunk[0].start_time)
        for limit in sorted(x for x in extra_limits if clock < x < submit_at):
            returned.extend(advance_to(session, limit))
        returned.extend(advance_to(session, submit_at))
        session.submit(chunk)
        clock = submit_at
    for limit in sorted(x for x in extra_limits if x > clock):
        returned.extend(advance_to(session, limit))
    returned.extend(drain(session))

    results = session.all_results()
    assert [(r.transfer.tag, r.failed) for r in results] == [
        (r.transfer.tag, r.failed) for r in batch
    ]
    # A limit inserts a filling round, so the bits may differ — and a
    # round that ends within _EPSILON_BYTES of a completion completes it.
    # Slowest possible positive rate: three stacked degrades (>= 0.5
    # each) under a >= 0.5 profile step, shared by every flow.
    slowest_share = min(
        min(site.uplink_bps, site.downlink_bps) for site in kwargs["topology"]
    ) * 0.5**4 / len(ordered)
    slack = 1e-9 + _EPSILON_BYTES / slowest_share
    for got, want in zip(results, batch):
        assert math.isclose(
            got.finish_time, want.finish_time, rel_tol=1e-9, abs_tol=slack
        )
    assert sorted(r.transfer.tag for r in returned) == sorted(
        t.tag for t in transfers
    )


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(failures=False))
def test_link_samples_integrate_to_the_bytes_each_site_sent(scenario):
    kwargs, transfers = scenario
    with instrument.instrumented() as obs:
        session = WanSession(TransferScheduler(**kwargs))
        session.submit(transfers)
        drain(session)
        session.flush_telemetry()
    carried = {}
    for event in obs.telemetry.events:
        if event.kind == "link-sample" and event.attrs["direction"] == "up":
            site = event.attrs["site"]
            carried[site] = carried.get(site, 0.0) + (
                event.attrs["used_bps"] * event.attrs["dt"]
            )
    sent = {}
    for transfer in transfers:
        if transfer.src != transfer.dst and transfer.num_bytes > 0:
            sent[transfer.src] = sent.get(transfer.src, 0.0) + transfer.num_bytes
    assert set(carried) == set(sent)
    for site, num_bytes in sent.items():
        assert math.isclose(
            carried[site], num_bytes, rel_tol=1e-9,
            abs_tol=_EPSILON_BYTES * len(transfers),
        )
