"""The archive writer and the critpath scans, held to the code they replaced.

``write_jsonl`` formats lines from the bus's columns through one
template per kind and key set; ``tests/obs/reference_export.py`` is the
per-event ``json.dumps(event.to_dict(), sort_keys=True)`` it replaced.
Over generated streams — ``t=None``, signed zero, non-finite floats,
subnormals, ints past 64 bits, bools and ``None``, strings with quotes,
backslashes, control characters, non-ASCII and lone surrogates, numpy
floats, nested lists and dicts, one kind emitted with different key sets
in different insertion orders — the archives are equal byte for byte,
from a bus and from an event list alike.  Runs of one kind and key set
whose columns hold one type (the exporter's one-``map`` path) or mix
ints, floats, bools, numpy floats, ``None`` and non-finite floats (its
per-value fallback) cross export windows shrunk to a few events.

The analyzer's blame pass and solo-time integral read interval indexes;
``tests/obs/reference_blame.py`` keeps the scans of every flow, map span
and capacity segment per query they replaced.  Over generated serve
streams — slot waits, WAN-bound queries whose critical flow shares links
with other tenants, capacity segments reaching into a flow's lifetime,
zero-length and touching intervals on a quarter-second grid, LAN and
unfinished flows, cached queries, tags that name no served query — the
paths, ``blame`` and ``query_blame`` are ``==`` to the reference.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import telemetry
from repro.obs.critpath import analyze_critical_paths
from repro.obs.telemetry import EVENT_KINDS, TelemetryBus, TelemetryEvent, write_jsonl
from tests.obs.reference_blame import reference_analysis
from tests.obs.reference_export import reference_write_jsonl

# ----------------------------------------------------------------------
# the archive writer
# ----------------------------------------------------------------------

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 0.1]
)
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7]),
    st.booleans(),
    st.none(),
    st.lists(st.integers() | floats, max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=8)
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ", "\ud800", "%s%%"]),
)
#: Few keys, so one kind recurs with overlapping key sets in any order;
#: ``%`` and quotes in a key exercise the line template's escaping.
keys = st.sampled_from(["a", "b", "zeta", "q%s", 'we"ird', "ü"]) | st.text(max_size=4)
times = st.none() | st.floats(allow_nan=False, allow_infinity=False) | st.integers()
rows = st.lists(
    st.tuples(
        st.sampled_from(sorted(EVENT_KINDS)[:4]) | st.sampled_from(sorted(EVENT_KINDS)),
        times | st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.lists(st.tuples(keys, scalars), max_size=5),
    ),
    max_size=12,
)


#: A column of one exact type, or one whose types mix across events.
columns = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    floats,
    st.integers(),
    st.text(max_size=3),
    st.booleans(),
    st.one_of(floats, st.integers(), st.booleans(), floats.map(np.float64), st.none()),
])


@st.composite
def template_runs(draw):
    """Events of one kind and key set, each key's values from one column."""
    kind = draw(st.sampled_from(sorted(EVENT_KINDS)))
    names = draw(st.lists(keys, unique=True, max_size=3))
    drawn = [draw(columns) for _ in names]
    return [
        (kind, draw(times), [(name, draw(column)) for name, column in zip(names, drawn)])
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]


streams = st.lists(rows | template_runs(), max_size=4).map(
    lambda runs: [row for run in runs for row in run]
)


def archive_bytes(write, source, path):
    write(source, str(path))
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    rows=streams,
    order=st.randoms(use_true_random=False),
    window=st.integers(min_value=1, max_value=7) | st.just(telemetry._EXPORT_WINDOW),
)
def test_archive_bytes_equal_the_per_event_encoder(tmp_path_factory, rows, order, window):
    path = tmp_path_factory.mktemp("archive") / "tele.jsonl"
    events = [
        TelemetryEvent(seq=seq, kind=kind, t=t, attrs=dict(pairs))
        for seq, (kind, t, pairs) in enumerate(rows)
    ]
    order.shuffle(events)  # a list is written in seq order, not list order
    bus = TelemetryBus()
    for kind, t, pairs in rows:
        bus.emit(kind, t, **{k: v for k, v in pairs if k not in ("self", "kind", "t")})
    for source in (events, bus):
        want = archive_bytes(reference_write_jsonl, source, path)
        with mock.patch.object(telemetry, "_EXPORT_WINDOW", window):
            assert archive_bytes(write_jsonl, source, path) == want


# ----------------------------------------------------------------------
# the blame pass
# ----------------------------------------------------------------------

SITES = "abc"
TENANTS = ("t0", "t1")  # few, so one culprit's weight sums many overlaps


def ticks(most, step):
    return st.integers(min_value=0, max_value=step * most).map(lambda n: n / step)


#: Seconds on a quarter-second grid (touching and zero-length intervals)
#: or on a 1/7919 s one, whose sums round (so summation order shows).
quarters = ticks(3, 4) | ticks(3, 7919)
moments = ticks(12, 4) | ticks(12, 7919)
sites = st.sampled_from(SITES)
#: Link capacities (bytes/s) against 1 MB flows: blacked out, binding, idle.
capacities = st.sampled_from([0.0, 4e5, 1e6, 3e6, 1e9])
#: Served queries' tags, tags of queries that never finish, and tags
#: that are not a query at all (movement, batch).
tags = st.sampled_from(["q0", "q1", "q2", "q3", "q4"]) | st.sampled_from(
    ["q9", "move", "job-0", "x1"]
)


def flow_events(tag, src, dst, start, length, wan):
    """A flow's start and (``length`` not None) finish, as sortable rows."""
    ends = {"tag": tag, "src": src, "dst": dst, "num_bytes": 1e6}
    rows = [(start, 0, "flow-start", dict(ends, wan=wan))]
    if length is not None:
        rows.append((start + length, 1, "flow-finish", ends))
    return rows


@st.composite
def served_query(draw, query):
    """One served query: queued, admitted, waiting for a slot, mapped at
    its critical site, then gated there by one inbound flow whose uplink
    could have carried it sooner — so it is WAN-bound, with contention
    to blame and capacity segments that bound its solo time."""
    job, tenant = f"q{query}", draw(st.sampled_from(TENANTS))
    arrival = draw(moments)
    admit = arrival + draw(quarters)
    start = admit + draw(quarters)
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        finish = start + draw(quarters)
        return [(finish, 2, "serve-finish", {
            "query": query, "tenant": tenant, "dataset": "d", "cached": True,
            "qct": finish - arrival,
        })]
    src, dst = draw(sites), draw(sites)
    flow_start = start + draw(quarters)
    flow_finish = flow_start + draw(quarters)
    map_end = min(start + draw(quarters), flow_finish)
    finish = flow_finish + draw(quarters)
    rows = [
        (arrival, 2, "serve-queue", {"query": query, "tenant": tenant}),
        (admit, 2, "serve-admit", {"query": query, "queue_seconds": admit - arrival}),
        (start, 2, "serve-start", {"query": query}),
        (map_end, 2, "stage-finish",
         {"stage": "map", "job": job, "site": dst, "start": start}),
        (flow_start, 2, "link-sample", {
            "direction": "up", "site": src, "dt": flow_finish - flow_start,
            "capacity_bps": draw(capacities),
        }),
        (finish, 2, "stage-finish",
         {"stage": "reduce", "job": job, "site": dst, "start": flow_finish}),
        (finish, 3, "serve-finish", {
            "query": query, "tenant": tenant, "dataset": "d", "cached": False,
            "qct": finish - arrival,
        }),
    ]
    rows += flow_events(job, src, dst, flow_start, flow_finish - flow_start, src != dst)
    # Rivals of queries served so far, ending off the grid so that each
    # culprit's weight is a sum whose order shows: flows on the critical
    # flow's uplink around its start, map stages around the slot wait.
    served = st.sampled_from([f"q{k}" for k in range(query + 1)])
    for tag, lead, length, site in draw(st.lists(
        st.tuples(served, quarters, ticks(3, 7919), sites), max_size=10
    )):
        rows += flow_events(tag, src, site, flow_start - lead, lead + length, True)
    for tag, offset, length, site in draw(st.lists(
        st.tuples(served, ticks(1, 7919), ticks(1, 7919), sites), max_size=10
    )):
        rows.append((admit + offset + length, 2, "stage-finish", {
            "stage": "map", "job": tag, "site": site, "start": admit + offset,
        }))
    # Uplink segments from before the flow into its lifetime.
    for lead, length in draw(st.lists(st.tuples(quarters, ticks(3, 7919)), max_size=4)):
        rows.append((flow_start - lead, 2, "link-sample", {
            "direction": "up", "site": src, "dt": lead + length,
            "capacity_bps": draw(capacities),
        }))
    return rows


@st.composite
def serve_streams(draw):
    rows = []
    for query in range(draw(st.integers(min_value=1, max_value=6))):
        rows += draw(served_query(query))
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        rows += flow_events(
            draw(tags), draw(sites), draw(sites), draw(moments),
            draw(st.none() | moments), draw(st.booleans()),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(moments)
        rows.append((start + draw(moments), 2, "stage-finish", {
            "stage": "map", "job": draw(tags), "site": draw(sites), "start": start,
        }))
    # Capacity segments anywhere, some longer than the flows they overlap
    # and some (hostile) of negative length.
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        rows.append((draw(moments), 2, "link-sample", {
            "direction": draw(st.sampled_from(["up", "down"])), "site": draw(sites),
            "dt": draw(moments | st.just(-0.5)), "capacity_bps": draw(capacities),
        }))
    rows.sort(key=lambda row: row[:2])
    return [
        TelemetryEvent(seq=seq, kind=kind, t=t, attrs=attrs)
        for seq, (t, _, kind, attrs) in enumerate(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(events=serve_streams())
def test_paths_and_blame_equal_the_scans_they_replaced(events):
    report, want = analyze_critical_paths(events), reference_analysis(events)
    assert report.paths == want.paths
    assert report.query_blame == want.query_blame
    assert report.blame == want.blame
