"""Every filling round of a whole ``WanSession`` run against the oracle.

A static session (no profiles, no faults) keeps its last fill while no
WAN flow joins or leaves, so a single-round property cannot see a stale
reuse: here every round a generated run makes — WAN and intra-site
flows, zero-byte flows, split submissions, ``advance(limit)`` stops,
capacities that tie exactly, telemetry switched on and off between
calls — is held to the flow-by-flow fill
(``tests/wan/reference_fill.py``) over that round's in-flight flows,
rates and (when sampled) residuals, link order and flow counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import instrument
from repro.obs.telemetry import NULL_TELEMETRY
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler, WanSession
from tests.wan.reference_fill import reference_fill

LAN_BPS = 1e4
#: Few capacities that tie exactly over one to three flows (400 / 2 ==
#: 200, 1 200 / 3 == 400) and round once shares come off them.
CAPACITIES = [200.0, 400.0, 1200.0, 1000.0 / 3.0]
quarters = st.integers(min_value=0, max_value=40).map(lambda q: q / 4.0)


class CheckedSession(WanSession):
    """A session that holds every fill it makes to the oracle."""

    def __init__(self, scheduler, table):
        super().__init__(scheduler)
        self.table = table
        self.fills = 0

    def _assign_rates(self, now, sampling):
        rates, sample = super()._assign_rates(now, sampling)
        flows = [(flow.transfer.src, flow.transfer.dst) for flow in self._active]
        want_rates, want_residual = reference_fill(flows, self.table, LAN_BPS)
        assert rates == want_rates
        if sampling:
            wan, order, capacities, residual, users, parked_possible = sample
            links = [self._links[link] for link in order]
            assert wan == sum(src != dst for src, dst in flows)
            residuals = [(link, residual[index]) for link, index in zip(links, order)]
            assert residuals == list(want_residual.items())
            assert [capacities[link] for link in order] == [
                self.table[link] for link in links
            ]
            wan_flows = [(src, dst) for src, dst in flows if src != dst]
            assert [users[link] for link in order] == [
                sum(link in (("up", src), ("down", dst)) for src, dst in wan_flows)
                for link in links
            ]
            assert not parked_possible
        else:
            assert sample is None
        self.fills += 1
        return rates, sample


@st.composite
def static_runs(draw):
    """``(topology, propagation, chunks of transfers, per-chunk limits)``."""
    names = "abcd"[: draw(st.integers(min_value=2, max_value=4))]
    site = st.sampled_from(names)
    capacity = st.sampled_from(CAPACITIES)
    topology = WanTopology.from_sites(
        [Site(name, draw(capacity), draw(capacity)) for name in names]
    )
    flows = draw(
        st.lists(
            st.tuples(
                site,
                site,
                st.one_of(st.just(0.0), st.sampled_from([50.0, 400.0, 1e3, 2500.0])),
                quarters,
            ),
            min_size=1,
            max_size=14,
        )
    )
    transfers = sorted(
        (
            Transfer(src, dst, size, start_time=start, tag=f"f{index}")
            for index, (src, dst, size, start) in enumerate(flows)
        ),
        key=lambda transfer: transfer.start_time,
    )
    cuts = sorted(set(draw(st.lists(st.integers(1, 13), max_size=3))))
    bounds = [cut for cut in cuts if cut < len(transfers)]
    chunks = [
        transfers[low:high]
        for low, high in zip([0] + bounds, bounds + [len(transfers)])
    ]
    # Stops within each chunk's run-up: limits land between rounds, so
    # the round after a stop repeats the fill before it.
    limits = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=12.0), max_size=3),
            min_size=len(chunks),
            max_size=len(chunks),
        )
    )
    propagation = draw(st.sampled_from([0.0, 0.125]))
    return topology, propagation, chunks, limits


@settings(max_examples=300, deadline=None)
@given(run=static_runs(), telemetry=st.lists(st.booleans(), min_size=1, max_size=6))
def test_every_round_of_a_static_session_is_the_oracle_fill(run, telemetry):
    topology, propagation, chunks, limits = run
    scheduler = TransferScheduler(
        topology, lan_bps=LAN_BPS, propagation_seconds=propagation
    )
    table = {
        link: capacity
        for site in topology
        for link, capacity in (
            (("up", site.name), site.uplink_bps),
            (("down", site.name), site.downlink_bps),
        )
    }
    session = CheckedSession(scheduler, table)
    calls = 0

    def advance(limit):
        """One call, with telemetry on or off as drawn for it."""
        nonlocal calls
        on = telemetry[calls % len(telemetry)]
        calls += 1
        with instrument.instrumented(telemetry=None if on else NULL_TELEMETRY):
            return session.advance(limit=limit)

    returned = []
    clock = 0.0
    for chunk, stops in zip(chunks, limits):
        submit_at = max(clock, chunk[0].start_time)
        for limit in sorted(stop for stop in stops if clock < stop < submit_at) + [
            submit_at
        ]:
            while True:
                done = advance(limit)
                returned.extend(done)
                if not done:
                    break
        session.submit(chunk)
        clock = submit_at
    for stop in sorted(stop for stops in limits for stop in stops if stop > clock):
        returned.extend(advance(stop))
    while not session.drained:
        returned.extend(advance(float("inf")))

    assert session.fills == session.filling_rounds
    assert sorted(result.transfer.tag for result in returned) == sorted(
        transfer.tag for chunk in chunks for transfer in chunk
    )
