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
per-value fallback) cross export windows shrunk to a few events; so do
float columns of one to three distinct values (each value encoded once),
with signed zeros and subnormals among them.

The analyzer's blame pass and solo-time integral read interval indexes;
``tests/obs/reference_blame.py`` keeps the scans of every flow, map span
and capacity segment per query they replaced.  Over generated serve
streams — slot waits, WAN-bound queries whose critical flow shares links
with other tenants, capacity segments reaching into a flow's lifetime,
zero-length and touching intervals on a quarter-second grid, LAN and
unfinished flows, cached queries, tags that name no served query — the
paths, ``blame`` and ``query_blame`` are ``==`` to the reference.

The index pass and the occupancy index it feeds are held to the ones
kept in ``tests/obs/reference_index.py`` over the generated streams
above and over recorded ones: a serve run drawn from contended
configurations (executed, cache-served and shed queries) followed by a
batch query span; the reports' paths, blame, ``query_blame`` and digest
are equal, and a hostile event fails both with the same words.
"""

import math
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.core.runner import run_experiment
from repro.errors import ObservabilityError
from repro.obs import instrument, telemetry
from repro.obs.critpath import analyze_critical_paths
from repro.obs.telemetry import EVENT_KINDS, TelemetryBus, TelemetryEvent, write_jsonl
from repro.serve import ServeConfig, serve_workload
from repro.systems.base import SystemConfig
from repro.wan.presets import ec2_ten_sites
from repro.workloads import build_workload
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload
from tests.obs.reference_blame import reference_analysis
from tests.obs.reference_export import reference_write_jsonl
from tests.obs.reference_index import reference_critical_paths

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


#: Finite floats the encoder must not conflate when it writes each
#: distinct value of a column once: both zeros, subnormals, the smallest
#: normal, and values equal to a zero or each other but not in ``repr``.
few_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1e16]
)

#: A column of one exact type, or one whose types mix across events, or
#: finite floats drawn from a pool of one to three values.
columns = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    floats,
    st.integers(),
    st.text(max_size=3),
    st.booleans(),
    st.one_of(floats, st.integers(), st.booleans(), floats.map(np.float64), st.none()),
]) | st.lists(few_floats, min_size=1, max_size=3).map(st.sampled_from)


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


#: One kind and key set whose float column mixes 0.0 and -0.0 among
#: other finite values: half its values distinct or fewer, so each is
#: encoded once, and a dict holds both zeros as one key.
SIGNED_ZEROS = [
    ("link-sample", 1.0, [("dt", value)])
    for value in (0.0, -0.0, 2.5, 0.0, -0.0, 2.5, -0.0, 0.0)
]


@settings(max_examples=150, deadline=None)
@given(
    rows=streams,
    order=st.randoms(use_true_random=False),
    window=st.integers(min_value=1, max_value=7) | st.just(telemetry._EXPORT_WINDOW),
)
@example(rows=SIGNED_ZEROS, order=random.Random(0), window=telemetry._EXPORT_WINDOW)
@example(rows=SIGNED_ZEROS, order=random.Random(1), window=4)
@example(
    rows=[("flow-finish", 0.5, [("parked_seconds", -0.0)])] * 3
    + [("flow-finish", 0.5, [("parked_seconds", 5e-324)])] * 3,
    order=random.Random(2),
    window=telemetry._EXPORT_WINDOW,
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


# ----------------------------------------------------------------------
# the index pass
# ----------------------------------------------------------------------

#: Slow uplinks and one map slot per site, so queries queue, wait for
#: slots and contend on the WAN.
TOPOLOGY = ec2_ten_sites(base_uplink="1MB/s", machines=1, executors_per_machine=2)
SPEC = WorkloadSpec(records_per_site=60, record_bytes=200_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=6.0, partition_records=8)


@lru_cache(maxsize=2)  # the mixed run and one more: each holds a run's events
def served(scheme, seed, rate, queue_depth, cache_capacity, queries):
    """The events of one serve run (the serve loop's own flows, stages,
    admissions and finishes)."""
    serve_config = ServeConfig(
        seed=seed, num_tenants=3, num_queries=queries, arrival_rate=rate,
        max_inflight=3, max_inflight_per_tenant=2, queue_depth=queue_depth,
        cache_capacity=cache_capacity, map_slots_per_site=1,
    )
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        report = serve_workload(
            scheme,
            lambda: bigdata_workload(TOPOLOGY, seed=13, spec=SPEC, flavour="aggregation"),
            TOPOLOGY, CONFIG, serve_config,
        )
    return tuple(bus.events), tuple(query.status for query in report.queries)


@lru_cache(maxsize=None)
def batch_span():
    """One batch query span and its baseline's, as ``repro run`` records them."""
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        run_experiment(
            "spark",
            lambda: build_workload("bigdata-aggregation", TOPOLOGY, seed=7, scale=0.15),
            TOPOLOGY, config=SystemConfig(seed=11, partition_records=8), query_limit=1,
        )
    return tuple(bus.events)


#: Executed, cache-served and shed queries in one run (8, 5 and 3).
MIXED = ("centralized", 11, 1.0, 1, 4, 16)

#: No shrink phase for the index-pass properties: shrinking a failing
#: stream or serve run took minutes and hundreds of MB, and the first
#: failing example already names the mismatch.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=20, deadline=None, phases=UNSHRUNK)
@given(
    run=st.tuples(
        st.sampled_from(["centralized", "bohr"]),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0.5, 1.0, 4.0, 16.0]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=4, max_value=16),
    ),
    trailing=st.booleans(),
)
@example(run=MIXED, trailing=True)
def test_reports_equal_the_index_pass_they_replaced(run, trailing):
    events, _ = served(*run)
    events = list(events) + (list(batch_span()) if trailing else [])
    report, want = analyze_critical_paths(events), reference_critical_paths(events)
    assert report.paths == want.paths
    assert report.blame == want.blame
    assert report.query_blame == want.query_blame
    assert report.digest() == want.digest()


@settings(max_examples=300, deadline=None, phases=UNSHRUNK)
@given(events=serve_streams())
def test_reports_equal_the_index_pass_on_generated_streams(events):
    # Repeated tags, flows that never finish and overlapping flows of one
    # tag, source and destination (ended first in, first out).
    report, want = analyze_critical_paths(events), reference_critical_paths(events)
    assert report.paths == want.paths
    assert report.blame == want.blame
    assert report.query_blame == want.query_blame


def test_the_mixed_run_holds_every_kind_of_query():
    events, statuses = served(*MIXED)
    assert {"executed", "cached", "shed"} <= set(statuses)
    report = analyze_critical_paths(list(events) + list(batch_span()))
    assert {path.status for path in report.paths} == {"executed", "cached"}
    assert report.paths[-1].dataset  # the batch span's own path comes last


@pytest.mark.parametrize(
    "kind, t, attrs",
    [
        ("serve-queue", 1.5, {"tenant": "a"}),
        ("serve-queue", 1.5, {"query": "abc"}),
        ("serve-queue", 1.5, {"query": math.inf}),
        ("serve-queue", None, {"query": 3}),
        ("link-sample", 2.0, {"direction": "up", "site": "s", "dt": "x"}),
        ("link-sample", None, {"site": "s"}),
        ("flow-start", 0.5, {"src": "a", "dst": "b", "num_bytes": [1]}),
        ("flow-finish", 0.5, {"src": "a"}),
        ("stage-finish", 0.5, {"stage": "map", "start": "x"}),
        ("serve-finish", 0.5, {"query": 1, "qct": None}),
    ],
)
def test_a_hostile_event_fails_both_with_the_same_words(kind, t, attrs):
    # Readable events first, so the failure is not the stream's first event.
    events, _ = served(*MIXED)
    hostile = TelemetryEvent(seq=len(events), kind=kind, t=t, attrs=attrs)
    messages = []
    for analyze in (analyze_critical_paths, reference_critical_paths):
        with pytest.raises(ObservabilityError) as raised:
            analyze(list(events) + [hostile])
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{kind} event at t={t} has ")
