"""Bus spans and the two views of the stream: nesting, ordering, the
no-op twin, and parity of ``spans_from_events`` / ``metrics_from_events``
with a golden run first recorded by the pre-bus tracer and registry."""

import gzip
import json
from pathlib import Path

import pytest

from repro.chaos.profiles import build_schedule
from repro.chaos.runtime import ChaosConfig
from repro.core.runner import run_experiment
from repro.errors import ObservabilityError
from repro.obs import instrument
from repro.obs.inspect import overall_coverage, query_coverage, stage_breakdown
from repro.obs.critpath import analyze_critical_paths
from repro.obs.span import Span
from repro.obs.telemetry import NULL_TELEMETRY, TelemetryBus, _is_wall_attr
from repro.obs.views import metrics_from_events, spans_from_events
from repro.systems.base import SystemConfig
from repro.wan.presets import ec2_ten_sites
from repro.workloads import build_workload


def _children(spans, parent):
    parent_id = None if parent is None else parent.span_id
    return [span for span in spans if span.parent_id == parent_id]


def _find(spans, name):
    return [span for span in spans if span.name == name]


def _emit_job(bus, job="job-0", site="a"):
    """One job's worth of engine/WAN events: a map, a shuffle, a reduce."""
    bus.emit("flow-finish", t=3.0, src=site, dst="b", num_bytes=10.0, tag=job,
             wan=True, start=1.0)
    bus.emit("stage-finish", t=1.0, stage="map", site=site, job=job, start=0.0,
             input_records=4, map_output_bytes=40.0, intermediate_bytes=10.0,
             rdd_overhead_seconds=0.0)
    bus.emit("stage-finish", t=4.0, stage="reduce", site="b", job=job,
             start=3.0, downloaded_bytes=10.0)
    bus.emit("job-finish", t=4.0, job=job, qct=4.0)


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        bus = TelemetryBus()
        with bus.span("experiment", stage="experiment"):
            with bus.span("query", stage="query"):
                _emit_job(bus)
            with bus.span("query", stage="query"):
                pass
        spans = spans_from_events(bus.events)
        [experiment] = _children(spans, None)
        queries = _children(spans, experiment)
        assert [span.name for span in queries] == ["query", "query"]
        assert [span.stage for span in _children(spans, queries[0])] == [
            "map", "shuffle", "reduce"
        ]
        assert _children(spans, queries[1]) == []

    def test_span_ids_are_creation_ordered(self):
        bus = TelemetryBus()
        with bus.span("a"):
            with bus.span("b"):
                pass
            with bus.span("c"):
                pass
        spans = spans_from_events(bus.events)
        assert [span.span_id for span in spans] == [0, 1, 2]
        assert [span.name for span in spans] == ["a", "b", "c"]

    def test_wall_times_are_monotonic_and_contained(self):
        bus = TelemetryBus()
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        outer, inner = spans_from_events(bus.events)
        assert outer.wall_start <= inner.wall_start
        assert inner.wall_end <= outer.wall_end
        assert outer.wall_duration >= inner.wall_duration

    def test_out_of_order_close_raises(self):
        """Nesting is stream order, so a span closed before the one
        opened inside it is caught when the stream is read."""
        bus = TelemetryBus()
        outer = bus.span("outer")
        bus.span("inner")
        outer.__exit__(None, None, None)
        with pytest.raises(ObservabilityError, match="innermost open span"):
            spans_from_events(bus.events)

    def test_stack_unwinds_on_exception(self):
        bus = TelemetryBus()
        with pytest.raises(RuntimeError):
            with bus.span("outer"):
                raise RuntimeError("boom")
        [outer] = spans_from_events(bus.events)
        assert outer.wall_end is not None
        with bus.span("next"):  # nothing left open
            pass

    def test_job_spans_need_no_open_span(self):
        bus = TelemetryBus()
        _emit_job(bus)
        spans = spans_from_events(bus.events)
        assert [span.parent_id for span in spans] == [None, None, None]
        assert _find(spans, "shuffle a->b")[0].sim_duration == 2.0

    def test_flows_of_other_tags_stay_out_of_the_job(self):
        bus = TelemetryBus()
        bus.emit("flow-finish", t=2.0, src="a", dst="b", num_bytes=5.0,
                 tag="movement", wan=True, start=0.0)
        _emit_job(bus)
        assert len(_find(spans_from_events(bus.events), "shuffle a->b")) == 1

    def test_attrs_flow_through(self):
        bus = TelemetryBus()
        with bus.span("query", stage="query", dataset="d0") as span:
            span.set(qct=4.2)
        [saved] = spans_from_events(bus.events)
        assert saved.attrs == {"dataset": "d0", "qct": 4.2}
        assert (saved.sim_start, saved.sim_end) == (0.0, 4.2)

    def test_query_finish_stamps_the_enclosing_query_span(self):
        bus = TelemetryBus()
        with bus.span("query:d0", stage="query", scheme="bohr"):
            with bus.span("wan-simulate", stage="wan", transfers=0) as inner:
                inner.set(filling_rounds=0, parked_seconds=0.0)
            bus.emit("query-finish", t=3.5, scheme="bohr", qct=3.5)
        query, wan = spans_from_events(bus.events)
        assert query.attrs["qct"] == 3.5 and query.sim_end == 3.5
        # Metric-only attrs stay in the archive, out of the span view.
        assert wan.attrs == {"transfers": 0}


class TestSpanValidation:
    def test_sim_interval_must_be_ordered(self):
        with pytest.raises(ObservabilityError):
            Span(span_id=0, name="bad", sim_start=2.0, sim_end=1.0)

    def test_wall_interval_must_be_ordered(self):
        with pytest.raises(ObservabilityError):
            Span(span_id=0, name="bad", wall_start=2.0, wall_end=1.0)

    def test_duration_prefers_simulated_clock(self):
        span = Span(
            span_id=0, name="s", wall_start=0.0, wall_end=0.5,
            sim_start=0.0, sim_end=9.0,
        )
        assert span.duration == 9.0
        assert span.wall_duration == 0.5


def _tiny_engine_run():
    from repro.engine.job import MapReduceEngine
    from repro.engine.spec import MapReduceSpec
    from repro.types import GeoDataset, Record, Schema
    from repro.wan.topology import Site, WanTopology

    topology = WanTopology.from_sites(
        [
            Site("a", 1000.0, 1000.0, compute_bps=1e9,
                 machines=1, executors_per_machine=1),
            Site("b", 1000.0, 1000.0, compute_bps=1e9,
                 machines=1, executors_per_machine=1),
        ]
    )
    schema = Schema.of("k", "v", kinds={"v": "numeric"})
    dataset = GeoDataset("d", schema)
    dataset.add_records(
        "a", [Record((f"k{i % 2}", 1), size_bytes=1000) for i in range(6)]
    )
    engine = MapReduceEngine(topology, partition_records=2)
    return engine.run(dataset, MapReduceSpec.of([0], 1.0))


class TestDisabledSlot:
    def test_default_instrumentation_is_noop(self):
        obs = instrument.current()
        assert not obs.enabled
        assert obs.telemetry is NULL_TELEMETRY

    def test_engine_emits_nothing_when_disabled(self):
        _tiny_engine_run()
        assert instrument.current().telemetry.events == []


class TestInstrumented:
    def test_instrumented_installs_and_restores(self):
        before = instrument.current()
        with instrument.instrumented() as obs:
            assert instrument.current() is obs
            assert obs.enabled
            with obs.telemetry.span("probe", stage="probe"):
                pass
        assert instrument.current() is before
        assert [s.name for s in spans_from_events(obs.telemetry.events)] == [
            "probe"
        ]

    def test_instrumented_restores_on_error(self):
        before = instrument.current()
        with pytest.raises(ValueError):
            with instrument.instrumented():
                raise ValueError("boom")
        assert instrument.current() is before

    def test_slot_has_exactly_two_members(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(instrument.Instrumentation)] == [
            "telemetry", "sanitizer"
        ]

    def test_engine_spans_nest_under_query(self):
        with instrument.instrumented() as obs:
            with obs.telemetry.span("query", stage="query") as query:
                query.set(qct=_tiny_engine_run().qct)
        spans = spans_from_events(obs.telemetry.events)
        assert {"query", "map", "shuffle", "wan"} <= {s.stage for s in spans}
        [query_span] = _find(spans, "query")
        map_spans = [s for s in spans if s.stage == "map"]
        assert map_spans
        for span in map_spans:
            assert span.parent_id == query_span.span_id
            assert span.is_simulated

    def test_recording_builds_no_spans_and_no_series(self, monkeypatch):
        """With telemetry on, the run itself makes no record but
        ``bus.emit``: spans and series exist only once a view is asked."""
        from repro.obs import span, views

        def forbidden(*args, **kwargs):
            raise AssertionError("built while recording")

        with monkeypatch.context() as patch:
            patch.setattr(span.Span, "__init__", forbidden)
            patch.setattr(views, "_series", forbidden)
            with instrument.instrumented() as obs:
                _tiny_engine_run()
        assert obs.telemetry.counts_by_kind()["flow-finish"] > 0


# ----------------------------------------------------------------------
# view parity against the golden run
# ----------------------------------------------------------------------

#: ``run_experiment("bohr", bigdata-aggregation, seed 11, queries 2)``
#: with the CLI's ``run`` configuration, benign and under ``--chaos
#: flaky-wan``, first captured from the pre-bus tracer and metrics
#: registry at 8550d75.  Re-captured from these views when the RDD
#: clustering cost became a sim-clock charge: at every site whose shard
#: outnumbers its executors a clustering pass now delays the map finish,
#: and everything after it moved.  Wall-valued columns, span attrs and
#: series are masked (series keep their observation count).  Re-captured
#: again when Iridium's greedy (Bohr's heuristic start) stopped solving a
#: task LP per candidate chunk: 3 ``lp-solve`` span pairs fewer per run —
#: the parent's views less exactly those spans, as
#: ``test_the_lp_priced_greedy_gives_back_the_parent_streams`` checks.
#: Regenerate with ``python tests/obs/test_views.py`` from the repo root.
GOLDEN = Path(__file__).parent / "golden" / "view_parity.json.gz"

_WALL_SERIES = {
    "similarity_check_seconds", "lp_solve_seconds", "cube_build_seconds",
    "probe_build_seconds",
}


def _observe(chaos_profile):
    topology = ec2_ten_sites(base_uplink="2MB/s")
    config = SystemConfig(
        lag_seconds=8.0, probe_k=30, seed=11, partition_records=8
    )
    chaos = None
    if chaos_profile:
        chaos = ChaosConfig(
            faults=build_schedule(chaos_profile, topology, seed=13)
        )

    def factory():
        return build_workload(
            "bigdata-aggregation", topology, placement="random", seed=11
        )

    with instrument.instrumented() as obs:
        result = run_experiment(
            "bohr", factory, topology, config, query_limit=2, chaos=chaos
        )
    return obs.telemetry.events, result


def _span_rows(spans):
    by_id = {span.span_id: span for span in spans}

    def chain(span):
        names = []
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            names.append(span.name)
        return names

    return sorted(
        (
            [
                span.name, span.stage, chain(span), span.sim_start, span.sim_end,
                {k: v for k, v in sorted(span.attrs.items())
                 if not _is_wall_attr(k)},
            ]
            for span in spans
        ),
        key=lambda row: json.dumps(row, sort_keys=True),
    )


def _metric_records(events):
    records = []
    for record in metrics_from_events(events):
        if record["name"] in _WALL_SERIES:
            record = {k: record[k] for k in ("name", "labels", "type", "count")}
        records.append(record)
    return records


def _views(events, result):
    """Everything the golden pins of one run, in its JSON shape."""
    spans = spans_from_events(events)
    movement = result.prep.movement
    return {
        "spans": _span_rows(spans),
        "inspect_rows": [
            [row[0], row[1], "*", row[3], row[4] if float(row[3]) > 0 else "*"]
            for row in stage_breakdown(spans)
        ],
        "coverage": [[r["qct"], r["covered"]] for r in query_coverage(spans)],
        "overall_coverage": overall_coverage(spans),
        "breakdown": [
            [f"query:{path.dataset}", path.tenant, path.qct]
            for path in analyze_critical_paths(events).paths
        ],
        "metrics": _metric_records(events),
        "total_moved_bytes": movement.total_moved_bytes,
        "mean_qct": result.mean_qct,
    }


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed():
    return {"benign": _observe(None), "chaos": _observe("flaky-wan")}


@pytest.fixture(params=["benign", "chaos"])
def parity(request, golden, observed):
    events, result = observed[request.param]
    # Through JSON, as the golden went: tuples become lists.
    got = json.loads(json.dumps(_views(events, result)))
    return got, golden[request.param], events


def test_chaos_stream_equals_the_parent_commit(observed):
    """The ``--chaos flaky-wan`` run above (``repro run --scheme bohr
    --queries 2 --chaos flaky-wan --seed 11``): the whole event stream,
    digested at 2081b01, before the WAN run machinery moved from
    ``TransferScheduler`` onto ``WanSession``; re-digested when the RDD
    clustering cost became a sim-clock charge: ``rdd_overhead_seconds``
    entered the digest, and the map finishes it delays shift the shuffle
    flows, which split into four more link samples and one more flows
    sample (1988 events before); re-digested when Iridium's greedy
    stopped solving a task LP per candidate chunk: its three pricing
    ``lp-solve`` span pairs went and nothing else moved (1993 events
    before, digest ``5c52f22a…``; see the next test)."""
    from repro.obs.telemetry import telemetry_digest

    events, _result = observed["chaos"]
    assert len(events) == 1987
    assert telemetry_digest(events) == CHAOS_DIGEST


#: The two runs' streams: events and digest at this commit, and at its
#: parent, whose Iridium greedy priced each candidate chunk with a task LP.
CHAOS_DIGEST = "6a1ab547b78e8f7d77cfe1da0eeb4f5b0e64cc1e16a399dc4df9b0bcb375f0d6"
STREAMS = {
    "benign": (
        None,
        (1770, "8704dff4fef65e818a08d61588bb111fa23e611d77c7a7c5dbaa35406e275b8b"),
        (1776, "927085b87acfd0d0b8318e4715c996c5eb28b4e2181bbd52724b9bd2cabcf88d"),
    ),
    "chaos": (
        "flaky-wan",
        (1987, CHAOS_DIGEST),
        (1993, "5c52f22a85ee6909655ca8eccb36f99fdf284fbe31120d911d0be6682d2a81d2"),
    ),
}


@pytest.mark.parametrize("run", sorted(STREAMS))
def test_the_lp_priced_greedy_gives_back_the_parent_streams(run, golden, observed):
    """Why the goldens were re-captured, checked: with Iridium's greedy
    priced by task LPs again (``reference_iridium_plan``) the run emits
    its parent's stream, digest for digest; drop the events of those
    pricing solves — ``lp-solve`` span pairs, nothing else — renumber
    ``seq`` and it is this commit's stream, and its views are the golden."""
    from repro.obs.telemetry import TelemetryEvent, telemetry_digest
    from tests.placement.reference_lp import lp_priced_greedy

    profile, (count, digest), parent = STREAMS[run]
    with lp_priced_greedy() as pricing:
        events, result = _observe(profile)
    assert (len(events), telemetry_digest(events)) == parent
    assert len(pricing) == parent[0] - count
    priced = [events[seq] for seq in pricing]
    assert {(event.kind, event.attrs["name"]) for event in priced} == {
        ("span-begin", "lp-solve"), ("span-end", "lp-solve"),
    }
    dropped = set(pricing)
    kept = [
        TelemetryEvent(seq=position, kind=event.kind, t=event.t, attrs=event.attrs)
        for position, event in enumerate(e for e in events if e.seq not in dropped)
    ]
    assert (len(kept), telemetry_digest(kept)) == (count, digest)
    current, _ = observed[run]
    assert telemetry_digest(current) == digest
    assert json.loads(json.dumps(_views(kept, result))) == golden[run]


class TestViewParity:
    def test_span_set_matches_the_tracer(self, parity):
        got, expected, _events = parity
        assert got["spans"] == expected["spans"]

    def test_inspect_tables_match(self, parity):
        got, expected, _events = parity
        assert got["inspect_rows"] == expected["inspect_rows"]
        assert got["coverage"] == expected["coverage"]
        assert got["overall_coverage"] == expected["overall_coverage"]

    def test_breakdown_matches(self, parity):
        """The critical-path analyzer decomposes the golden's queries:
        same order, scheme and QCT, every one conserving."""
        got, expected, events = parity
        assert got["breakdown"] == expected["breakdown"]
        assert analyze_critical_paths(events).max_residual() <= 1e-9

    def test_metrics_snapshot_matches_the_registry(self, parity):
        got, expected, _events = parity
        key = lambda record: json.dumps(record, sort_keys=True)  # noqa: E731
        assert sorted(got["metrics"], key=key) == sorted(
            expected["metrics"], key=key
        )

    def test_movement_bytes_in_archive_equal_the_report(self, golden, observed):
        """Regression: the accepted movement round is simulated once, so
        the flows on the bus are the movement the report describes."""
        events, result = observed["benign"]
        movement = result.prep.movement
        datasets = {key[0] for key in movement.moved_bytes}
        delivered = sum(
            event.attrs["num_bytes"]
            for event in events
            if event.kind == "flow-finish" and event.attrs["tag"] in datasets
        )
        assert delivered == movement.total_moved_bytes
        expected = golden["benign"]
        assert movement.total_moved_bytes == expected["total_moved_bytes"]
        assert result.mean_qct == expected["mean_qct"]


if __name__ == "__main__":
    captured = {
        run: _views(*_observe(profile))
        for run, profile in (("benign", None), ("chaos", "flaky-wan"))
    }
    with gzip.open(GOLDEN, "wt", encoding="utf-8") as handle:
        json.dump(captured, handle, sort_keys=True)
