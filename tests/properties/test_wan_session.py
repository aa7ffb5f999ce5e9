"""The ``WanSession`` contract, stated as properties over generated runs.

Up to 12 flows over up to 4 sites with random starts and sizes (zero-byte
and intra-site flows included), optionally under link fault windows, a
finite stall timeout and stepped bandwidth profiles.  Then one filling
round on its own: the pair-class fill against the flow-by-flow fill it
replaced (``tests/wan/reference_fill.py``), bit for bit.
"""

import math
from collections import Counter

import pytest
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
from tests.wan.reference_fill import reference_fill

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


# ----------------------------------------------------------------------
# one filling round: pair classes against the flow-by-flow oracle
# ----------------------------------------------------------------------

LAN_BPS = 1e6


class TableScheduler(TransferScheduler):
    """The capacity oracle read off a table, so a link can carry exactly
    0.0 B/s (``Site`` rejects that; in a run only a fault window gets
    there)."""

    def __init__(self, table, per_round):
        names = sorted({site for _direction, site in table})
        super().__init__(
            WanTopology.from_sites([Site(name, 1.0, 1.0) for name in names]),
            lan_bps=LAN_BPS,
            # Any profile makes the session ask for capacities every
            # round instead of once per link.
            profiles=(
                {names[0]: BandwidthProfile.steps([(0.0, 1.0)])} if per_round else {}
            ),
        )
        self.table = table

    def effective_bps(self, site, direction, now):
        return self.table[(direction, site)]


def pair_fill(flows, table, per_round=False, interned=()):
    """``(rate per flow, residual per link in use)`` of one
    ``WanSession`` round over ``(src, dst)`` flows, all in flight.

    ``interned`` links get their ids first, as earlier traffic of a long
    session would have given them: then link ids are not in the order
    this round's flows meet the links, and only the scan's order can
    break a tie the way the flow-by-flow fill does.
    """
    session = WanSession(TableScheduler(table, per_round))
    for direction, site in interned:
        session._link_id(direction, site)
    session.submit([Transfer(src, dst, 1.0) for src, dst in flows])
    # Admits every flow; the limit stops the call short of a round.
    assert session.advance(limit=0.0) == [] and session.filling_rounds == 0
    rates, sample = session._assign_rates(0.0, sampling=True)
    # Telemetry off skips the bottleneck residuals, never a rate.
    assert session._assign_rates(0.0, sampling=False) == (rates, None)
    wan, order, capacities, residual, users, parked_possible = sample
    assert wan == sum(src != dst for src, dst in flows)
    assert [capacities[link] for link in order] == [
        table[session._links[link]] for link in order
    ]
    assert parked_possible == any(rate <= 0.0 for rate in rates)
    return rates, {session._links[link]: residual[link] for link in order}


def all_links(names, capacity):
    return {(direction, name): capacity for direction in ("up", "down") for name in names}


@st.composite
def rounds(draw):
    names = "abcde"[: draw(st.integers(min_value=2, max_value=5))]
    site = st.sampled_from(names)
    # Few values, one of them zero: exact share ties and parked links in
    # most draws.  0.2 and 0.4 tie at 0.1 over two and four flows, and
    # what is left after subtracting 0.1 rounds, so the link a tie picks
    # shows in the bits of every later share.
    table = {
        link: draw(st.sampled_from([0.0, 0.2, 0.4, 120.0, 360.0]))
        for link in all_links(names, None)
    }
    flows = draw(st.lists(st.tuples(site, site), min_size=1, max_size=40))
    return flows, table


@st.composite
def crowded_rounds(draw):
    """Few pairs of up to 50 flows each, interleaved, over capacities
    that are zero, tie exactly, or round — or over links that all tie at
    the first scan: every pair class is a fold."""
    names = "abcd"[: draw(st.integers(min_value=2, max_value=4))]
    site = st.sampled_from(names)
    table = {
        link: draw(
            st.one_of(
                st.sampled_from([0.0, 0.2, 0.4, 120.0, 360.0]),
                st.floats(min_value=1.0, max_value=1e4),
            )
        )
        for link in all_links(names, None)
    }
    classes = draw(
        st.lists(
            st.tuples(site, site, st.integers(min_value=1, max_value=50)),
            min_size=1,
            max_size=6,
        )
    )
    flows = [(src, dst) for src, dst, count in classes for _ in range(count)]
    if draw(st.booleans()):
        # Every link in use carries 0.1 per flow crossing it (0.1 * n / n
        # is exactly 0.1 for most n): the first scan ties nearly every
        # link, only the scan order picks the bottleneck, and 0.1 rounds
        # in the subtractions that decide every later share.
        users = Counter(
            link
            for src, dst in flows
            if src != dst
            for link in (("up", src), ("down", dst))
        )
        table.update({link: 0.1 * n for link, n in users.items()})
    return draw(st.permutations(flows)), table


@settings(max_examples=500, deadline=None)
@given(
    round_=st.one_of(rounds(), crowded_rounds()),
    per_round=st.booleans(),
    data=st.data(),
)
def test_pair_class_fill_is_the_flow_by_flow_fill(round_, per_round, data):
    flows, table = round_
    interned = data.draw(st.permutations(sorted(table)))
    rates, residual = pair_fill(flows, table, per_round, interned)
    want_rates, want_residual = reference_fill(flows, table, LAN_BPS)
    assert rates == want_rates
    # Same links, same order, same bits.
    assert list(residual.items()) == list(want_residual.items())


@pytest.mark.parametrize("count", range(1, 51))
@pytest.mark.parametrize("share", [0.1, 1.0 / 3.0, 0.25])
def test_a_pair_folds_its_share_off_a_capacity_of_exactly_count_shares(count, share):
    # up(a) is met first and ties down(b) at ``share`` per flow, so the
    # pair freezes at up(a) and down(b) keeps the clamped running
    # difference of ``count`` subtractions: zero, a rounding crumb, or a
    # negative crumb clamped to zero — whatever the flow-by-flow fill did.
    flows = [("a", "b")] * count
    table = {("up", "a"): count * share, ("down", "b"): count * share}
    rates, residual = pair_fill(flows, table)
    assert (rates, residual) == reference_fill(flows, table, LAN_BPS)
    assert rates == [count * share / count] * count
    running = count * share
    for _ in range(count):
        running = max(0.0, running - rates[0])
    assert residual[("down", "b")] == running


def test_a_share_of_zero_and_a_capacity_of_zero():
    # up(a) carries nothing: its pairs park at 0.0 and take nothing off
    # their downlinks; down(c) carries nothing either, so (b, c) parks at
    # 0.0 off a zero capacity and up(b) keeps all of its capacity for
    # (b, d).
    table = {**all_links("abcd", 90.0), ("up", "a"): 0.0, ("down", "c"): 0.0}
    flows = [("a", "b")] * 3 + [("a", "d")] * 2 + [("b", "c")] * 4 + [("b", "d")]
    rates, residual = pair_fill(flows, table)
    assert (rates, residual) == reference_fill(flows, table, LAN_BPS)
    assert rates[:9] == [0.0] * 9
    assert residual[("down", "b")] == 90.0 and residual[("down", "c")] == 0.0
    # (b, d) is the last unfrozen flow on down(d) and on up(b): all 90.
    assert rates[9] == 90.0 and residual[("up", "b")] == 0.0


def test_400_flows_of_one_pair_subtract_their_share_400_times():
    flows = [("a", "b")] * 400
    table = all_links("ab", 1000.0 / 3.0)
    rates, residual = pair_fill(flows, table)
    assert (rates, residual) == reference_fill(flows, table, LAN_BPS)
    share = rates[0]
    assert rates == [share] * 400 and share == (1000.0 / 3.0) / 400
    # What is left is the running difference, not capacity - 400 * share.
    assert residual[("up", "a")] == residual[("down", "b")]
    assert residual[("up", "a")] != max(0.0, 1000.0 / 3.0 - 400 * share)


def test_first_appearance_order_breaks_a_tie_between_links():
    # up(a) shared by two flows and down(c) shared by four tie at 0.1.
    table = {**all_links("abcd", 1.0), ("up", "a"): 0.2, ("down", "c"): 0.4}
    downlink_first = [("d", "c"), ("a", "c"), ("a", "c"), ("b", "c")]
    uplink_first = [("a", "c"), ("a", "c"), ("d", "c"), ("b", "c")]
    for flows in (downlink_first, uplink_first):
        want = reference_fill(flows, table, LAN_BPS)
        assert pair_fill(flows, table) == want
        # Link ids given in some other order (as a long session's earlier
        # traffic would) must not change which link the tie picks.
        for interned in ([("up", "a"), ("down", "c")], [("down", "c"), ("up", "a")]):
            assert pair_fill(flows, table, interned=interned) == want
    # down(c) met first: it freezes all four flows at once.
    assert pair_fill(downlink_first, table)[0] == [0.1] * 4
    # up(a) met first: down(c) then splits 0.4 - 0.1 - 0.1 in two.
    late = (0.4 - 0.1 - 0.1) / 2
    assert late != 0.1
    assert pair_fill(uplink_first, table)[0] == [0.1, 0.1, late, late]
