"""Bus spans and the two views of the stream: nesting, ordering, the
no-op twin, and parity of ``spans_from_events`` / ``metrics_from_events``
with what the pre-bus tracer and metrics registry recorded."""

import gzip
import json
from pathlib import Path

import pytest

from repro.chaos.profiles import build_schedule
from repro.chaos.runtime import ChaosConfig
from repro.core.runner import run_experiment
from repro.errors import ObservabilityError
from repro.obs import NULL_TELEMETRY, Span, TelemetryBus, instrument
from repro.obs.inspect import overall_coverage, query_coverage, stage_breakdown
from repro.obs.critpath import analyze_critical_paths
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
        from repro.obs import metrics, span

        def forbidden(*args, **kwargs):
            raise AssertionError("built while recording")

        with monkeypatch.context() as patch:
            patch.setattr(span.Span, "__init__", forbidden)
            patch.setattr(metrics.MetricsRegistry, "_get", forbidden)
            with instrument.instrumented() as obs:
                _tiny_engine_run()
        assert obs.telemetry.counts_by_kind()["flow-finish"] > 0


# ----------------------------------------------------------------------
# view parity against the parent commit
# ----------------------------------------------------------------------

#: Captured at the parent commit (8550d75, tracer + metrics registry as
#: recorders): ``run_experiment("bohr", bigdata-aggregation, seed 11,
#: queries 2)`` with the CLI's ``run`` configuration except
#: ``charge_rdd_overhead=False`` (the surcharge is a measured wall time
#: folded into QCT), benign and under ``--chaos flaky-wan``.  Span rows
#: are (name, stage, parent-name chain, sim_start, sim_end, sim-valued
#: attrs); inspect rows have wall columns masked; wall-valued metric
#: series keep only their observation count.
GOLDEN = Path(__file__).parent / "golden" / "view_parity.json.gz"

_WALL_ATTRS = {"wall_seconds", "rdd_overhead_seconds", "overhead_seconds"}
_WALL_SERIES = {
    "rdd_overhead_seconds", "similarity_check_seconds", "lp_solve_seconds",
    "cube_build_seconds", "probe_build_seconds",
}


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def _observe(chaos_profile):
    topology = ec2_ten_sites(base_uplink="2MB/s")
    config = SystemConfig(
        lag_seconds=8.0, probe_k=30, seed=11, partition_records=8,
        charge_rdd_overhead=False,
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


@pytest.fixture(scope="module")
def observed():
    return {"benign": _observe(None), "chaos": _observe("flaky-wan")}


@pytest.fixture(params=["benign", "chaos"])
def parity(request, golden, observed):
    events, _result = observed[request.param]
    return request.param, golden[request.param], events


def test_chaos_stream_equals_the_parent_commit(observed):
    """The ``--chaos flaky-wan`` run above (``repro run --scheme bohr
    --queries 2 --chaos flaky-wan --seed 11`` with the RDD surcharge
    off): the whole event stream, digested at 2081b01, before the WAN
    run machinery moved from ``TransferScheduler`` onto ``WanSession``."""
    from repro.obs.telemetry import telemetry_digest

    events, _result = observed["chaos"]
    assert len(events) == 1988
    assert telemetry_digest(events) == (
        "3dd3ea8647b0bbb5ef71fe58e1b00bb0955a9b058e22003f305e238b44c333c7"
    )


def _span_rows(spans):
    by_id = {span.span_id: span for span in spans}

    def chain(span):
        names = []
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            names.append(span.name)
        return names

    return [
        [
            span.name, span.stage, chain(span), span.sim_start, span.sim_end,
            {k: v for k, v in sorted(span.attrs.items()) if k not in _WALL_ATTRS},
        ]
        for span in spans
    ]


def _movement_simulated_twice(run):
    """The parent simulated the accepted movement round twice when no
    retry policy was set (fixed here): its golden holds one extra
    ``wan-simulate`` span and double-counts the movement's transfers."""
    return run == "benign"


def _sites_without_a_similarity_pass(run):
    """Sites whose wall-valued ``rdd_overhead_seconds`` series is gone.

    At the parent every machine holding two or more partitions paid a
    DIMSUM + k-means pass.  A machine with no more partitions than
    executors no longer does (the assignment is forced), so a site whose
    shard fits its executors — here at most 64 records: 2 machines x 4
    executors x 8-record partitions — reports 0.0 and the view, which
    only observes positive overheads, has no series for it.  (After
    movement ireland holds 61 records in the benign run, 70 under chaos.)"""
    return {
        "benign": ("frankfurt", "ireland", "london", "oregon", "sydney"),
        "chaos": ("frankfurt", "london", "oregon", "sydney"),
    }[run]


class TestViewParity:
    def test_span_set_matches_the_tracer(self, parity):
        run, expected, events = parity
        rows = _span_rows(spans_from_events(events))
        want = list(expected["spans"])
        if _movement_simulated_twice(run):
            extra = next(
                row for row in want
                if row[0] == "wan-simulate" and "movement" in row[2]
            )
            want.remove(extra)
        key = lambda row: json.dumps(row, sort_keys=True)  # noqa: E731
        assert sorted(rows, key=key) == sorted(want, key=key)

    def test_inspect_tables_match(self, parity):
        run, expected, events = parity
        spans = spans_from_events(events)
        rows = [
            [row[0], row[1], "*", row[3], row[4] if float(row[3]) > 0 else "*"]
            for row in stage_breakdown(spans)
        ]
        # The golden's sixth column is the stage-share the table no
        # longer carries (attribution is the critical path's).
        want = [list(row[:5]) for row in expected["inspect_rows"]]
        if _movement_simulated_twice(run):
            for row in want:
                if row[0] == "wan":
                    row[1] -= 1
        assert rows == want
        coverage = query_coverage(spans)
        assert [[r["qct"], r["covered"]] for r in coverage] == expected["coverage"]
        assert overall_coverage(spans) == expected["overall_coverage"]

    def test_breakdown_matches(self, parity):
        """The golden's query spans (recorded by the parent's tracer) are
        the queries the critical-path analyzer decomposes: same order,
        scheme and QCT, every one conserving."""
        _, expected, events = parity
        crit = analyze_critical_paths(events)
        assert [
            [f"query:{path.dataset}", path.tenant, path.qct]
            for path in crit.paths
        ] == [query[:3] for query in expected["breakdown"]["queries"]]
        assert crit.max_residual() <= 1e-9

    def test_metrics_snapshot_matches_the_registry(self, parity):
        run, expected, events = parity
        got = {}
        for record in metrics_from_events(events).snapshot():
            if record["name"] in _WALL_SERIES:
                record = {k: record[k] for k in ("name", "labels", "type", "count")}
            got[(record["name"], json.dumps(record["labels"], sort_keys=True))] = record
        want = {
            (record["name"], json.dumps(record["labels"], sort_keys=True)): record
            for record in expected["metrics"]
        }
        if _movement_simulated_twice(run):
            # Itemised: what the double simulation inflated in the parent.
            transfers = expected["movement"]["transfers"]
            for src, dst, num_bytes, _failed in transfers:
                want[("wan_bytes", json.dumps({"dst": dst, "src": src}))][
                    "value"
                ] -= num_bytes
            want[("wan_simulations", "{}")]["value"] -= 1
            want[("wan_transfers", "{}")]["value"] -= len(transfers)
            movement_rounds = next(
                event.attrs["filling_rounds"]
                for event in events
                if event.kind == "span-end" and event.attrs["name"] == "wan-simulate"
            )
            want[("wan_filling_rounds", "{}")]["value"] -= movement_rounds
        # Itemised: the series of the sites where no similarity pass runs.
        forced = _sites_without_a_similarity_pass(run)
        for site in forced:
            del want[("rdd_overhead_seconds", json.dumps({"site": site}))]
        map_inputs = {}
        for event in events:
            if event.kind == "stage-finish" and event.attrs["stage"] == "map":
                map_inputs.setdefault(event.attrs["site"], []).append(
                    event.attrs["input_records"]
                )
        # Per site the scheme's two queries come first; the vanilla
        # baseline's map stages follow and never ran a similarity pass.
        assert set(forced) == {
            site for site, inputs in map_inputs.items() if max(inputs[:2]) <= 64
        }
        assert got == want

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
        assert movement.total_moved_bytes == expected["movement"]["total_moved_bytes"]
        assert result.mean_qct == expected["mean_qct"]
