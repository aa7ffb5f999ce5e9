"""Critical-path analyzer: conservation, determinism, blame attribution.

The fixtures run the real serve loop at a deliberately contended scale
(slow uplinks, high arrival rate, small cache) so queue waits, WAN
contention, and cache hits all appear in one archive.  Everything the
analyzer claims is cross-checked against the serve report and the
sanitizer's ``critpath-conservation`` invariant.

``TestBatchQueries`` holds the analyzer to the same contract on batch
archives (``repro run`` / ``run_experiment``), and states "batch is a
serve session of one" as a property: on one prepared controller, the
same query through ``Controller.run_query`` and through a one-tenant
``ServeScheduler`` decomposes identically.
"""

import dataclasses
import json
import math
import re

import pytest

from repro.chaos.profiles import build_schedule
from repro.chaos.runtime import ChaosConfig
from repro.cli import main
from repro.core.runner import run_experiment
from repro.errors import InvariantViolation, ObservabilityError
from repro.obs import instrument, spans_from_events
from repro.obs.critpath import (
    COMPONENTS,
    QueryPath,
    analyze_critical_paths,
    emit_blame,
    render_components,
)
from repro.obs.report_html import render_report
from repro.obs.sanitize import Sanitizer
from repro.obs.telemetry import (
    EVENT_KINDS,
    TelemetryBus,
    TelemetryEvent,
    load_jsonl,
    write_jsonl,
)
from repro.serve import Arrival, ServeConfig, ServeScheduler, serve_workload
from repro.systems.base import SystemConfig
from repro.systems.registry import SCHEME_NAMES, make_system
from repro.wan.presets import ec2_ten_sites
from repro.workloads import build_workload
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload
from tests.obs.reference_blame import reference_analysis

SPEC = WorkloadSpec(records_per_site=60, record_bytes=200_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=6.0, partition_records=8)
SERVE = ServeConfig(
    seed=11, num_tenants=3, num_queries=14, arrival_rate=4.0,
    max_inflight=3, max_inflight_per_tenant=2, cache_capacity=2,
    map_slots_per_site=1,
)


def run_recorded(serve_config=SERVE, scheme="centralized"):
    # Centralized scheme (the default here): every query shuffles over
    # the WAN at serve time, so queue waits and link contention occur.
    topo = ec2_ten_sites(
        base_uplink="1MB/s", machines=1, executors_per_machine=2
    )

    def factory():
        return bigdata_workload(topo, seed=13, spec=SPEC, flavour="aggregation")

    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        report = serve_workload(scheme, factory, topo, CONFIG, serve_config)
    return bus, report


@pytest.fixture(scope="module")
def recorded():
    bus, report = run_recorded()
    return bus, report, analyze_critical_paths(bus.events)


class TestConservation:
    def test_components_sum_to_qct(self, recorded):
        _, _, crit = recorded
        assert crit.paths
        assert crit.max_residual() <= 1e-9
        for path in crit.paths:
            assert math.isclose(path.total, path.qct, rel_tol=0, abs_tol=1e-9)

    def test_components_non_negative(self, recorded):
        _, _, crit = recorded
        for path in crit.paths:
            for name in COMPONENTS:
                assert getattr(path, name) >= -1e-9, (path.index, name)

    def test_every_query_covered_once(self, recorded):
        _, report, crit = recorded
        finished = {
            query.index for query in report.queries
            if query.status in ("executed", "cached")
        }
        assert {path.index for path in crit.paths} == finished
        assert len(crit.paths) == len(finished)

    def test_cached_queries_are_cache_bound(self):
        # Bohr pre-places data and answers fast, so repeats under a
        # light load actually hit the cube cache.
        topo = ec2_ten_sites(
            base_uplink="1MB/s", machines=1, executors_per_machine=2
        )
        light = WorkloadSpec(
            records_per_site=30, record_bytes=100_000, num_datasets=2
        )

        def factory():
            return bigdata_workload(
                topo, seed=13, spec=light, flavour="aggregation"
            )

        bus = TelemetryBus()
        with instrument.instrumented(telemetry=bus):
            report = serve_workload(
                "bohr", factory, topo, CONFIG,
                ServeConfig(seed=11, num_tenants=3, num_queries=14,
                            arrival_rate=4.0, cache_capacity=2),
            )
        crit = analyze_critical_paths(bus.events)
        cached = {
            query.index for query in report.queries if query.status == "cached"
        }
        assert cached, "fixture run must produce cache hits"
        for path in crit.paths:
            if path.index in cached:
                assert path.bound == "cache"
                assert path.cached_seconds == path.qct
                assert path.contention_seconds == 0.0
            else:
                assert path.bound in ("wan", "compute")
                assert path.cached_seconds == 0.0

    def test_sanitizer_invariant_holds_in_raise_mode(self):
        bus, _ = run_recorded()
        sanitizer = Sanitizer(mode="raise")
        with instrument.instrumented(sanitizer=sanitizer):
            analyze_critical_paths(bus.events)
        assert sanitizer.checks_run > 0
        assert sanitizer.violations == []

    def test_sanitizer_rejects_broken_path(self):
        broken = QueryPath(
            index=0, tenant="t", dataset="d", status="executed", bound="wan",
            arrival=0.0, finish=10.0, qct=10.0,
            queue_wait=1.0, slot_wait=1.0, map_seconds=1.0, wan_serial=1.0,
            wan_contention=1.0, reduce_seconds=1.0, cached_seconds=0.0,
        )  # sums to 6, not 10
        with pytest.raises(InvariantViolation, match="critpath-conservation"):
            Sanitizer(mode="raise").check_critical_path(broken)


class TestDeterminism:
    def test_same_seed_digest_identical(self, recorded):
        _, _, crit = recorded
        bus, _ = run_recorded()
        again = analyze_critical_paths(bus.events)
        assert again.digest() == crit.digest()

    def test_digest_sensitive_to_paths(self, recorded):
        _, _, crit = recorded
        light = ServeConfig(seed=11, num_tenants=3, num_queries=6)
        bus, _ = run_recorded(light)
        assert analyze_critical_paths(bus.events).digest() != crit.digest()


class TestBlame:
    def test_blame_conserves_contention_seconds(self, recorded):
        _, _, crit = recorded
        blamed = math.fsum(
            seconds
            for culprits in crit.blame.values()
            for seconds in culprits.values()
        )
        contended = math.fsum(
            path.contention_seconds
            for path in crit.paths
            if path.contention_seconds > 1e-9
        )
        assert math.isclose(blamed, contended, rel_tol=1e-9, abs_tol=1e-6)

    def test_contended_run_attributes_something(self, recorded):
        _, _, crit = recorded
        totals = crit.component_totals()
        assert totals["queue_wait"] > 0.0
        assert totals["wan_contention"] > 0.0
        assert crit.blame

    def test_query_blame_aggregates_to_matrix(self, recorded):
        _, _, crit = recorded
        rebuilt = {}
        tenant_of = {path.index: path.tenant for path in crit.paths}
        for query, culprits in crit.query_blame.items():
            row = rebuilt.setdefault(tenant_of[query], {})
            for culprit, seconds in culprits.items():
                row[culprit] = row.get(culprit, 0.0) + seconds
        assert set(rebuilt) == set(crit.blame)
        for victim, culprits in crit.blame.items():
            for culprit, seconds in culprits.items():
                assert math.isclose(
                    rebuilt[victim][culprit], seconds, rel_tol=1e-12
                )

    def test_blame_equals_the_scan_it_replaced(self):
        # Six in flight on one map slot per site: both branches fire.
        overloaded = dataclasses.replace(
            SERVE, arrival_rate=20.0, max_inflight=6, max_inflight_per_tenant=6
        )
        bus, _ = run_recorded(overloaded)
        crit = analyze_critical_paths(bus.events)
        totals = crit.component_totals()
        assert totals["slot_wait"] > 0.0 and totals["wan_contention"] > 0.0
        want = reference_analysis(bus.events)
        assert crit.paths == want.paths
        assert (crit.blame, crit.query_blame) == (want.blame, want.query_blame)

    def test_emit_blame_round_trips_through_bus(self, recorded):
        _, _, crit = recorded
        bus = TelemetryBus()
        emitted = emit_blame(crit, bus)
        assert emitted == len(crit.query_blame)
        assert all(event.kind in EVENT_KINDS for event in bus.events)
        times = [event.t for event in bus.events]
        assert times == sorted(times)
        for event in bus.events:
            assert 0.0 <= event.attrs["share"] <= 1.0 + 1e-12


class TestReportShape:
    def test_to_dict_is_json_ready(self, recorded):
        import json

        _, _, crit = recorded
        payload = crit.to_dict()
        json.dumps(payload)
        assert payload["digest"] == crit.digest()
        assert payload["max_residual"] <= 1e-9
        assert set(payload["component_totals"]) == set(COMPONENTS)

    def test_empty_stream_gives_empty_report(self):
        crit = analyze_critical_paths([])
        assert crit.paths == []
        assert crit.blame == {}
        assert crit.max_residual() == 0.0
        assert "nothing to attribute" in render_components(crit)

    @pytest.mark.parametrize(
        "kind", ["serve-queue", "serve-admit", "serve-start", "serve-finish"]
    )
    def test_a_serve_event_without_its_query_is_named(self, kind):
        # It used to escape as a bare KeyError('query').
        events = [TelemetryEvent(seq=0, kind=kind, t=1.5, attrs={"tenant": "a"})]
        with pytest.raises(ObservabilityError) as raised:
            analyze_critical_paths(events)
        assert str(raised.value) == (
            f"{kind} event at t=1.5 has no 'query' attribute"
        )

    @pytest.mark.parametrize(
        "kind, t, attrs, named",
        [
            ("serve-queue", 1.5, {"query": "abc"}, "'query' attribute ('abc')"),
            ("serve-queue", 1.5, {"query": math.inf}, "'query' attribute (inf)"),
            ("serve-queue", None, {"query": 3}, "'t' attribute (None)"),
            ("link-sample", 2.0, {"direction": "up", "site": "s", "dt": "x"},
             "'dt' attribute ('x')"),
            ("flow-start", 0.5, {"src": "a", "dst": "b", "num_bytes": [1]},
             "'num_bytes' attribute ([1])"),
        ],
    )
    def test_a_non_numeric_attribute_is_named(self, kind, t, attrs, named):
        # These used to escape as a bare ValueError, TypeError or
        # OverflowError.
        events = [TelemetryEvent(seq=0, kind=kind, t=t, attrs=attrs)]
        with pytest.raises(ObservabilityError) as raised:
            analyze_critical_paths(events)
        assert str(raised.value) == (
            f"{kind} event at t={t} has a non-numeric {named}"
        )


# ----------------------------------------------------------------------
# batch archives
# ----------------------------------------------------------------------

# Slow links, so that flaky-wan stretches flows and site-outage fails
# some inside the two queries' lifetimes.
BATCH_TOPOLOGY = ec2_ten_sites(base_uplink="0.05MB/s")
BATCH_CONFIG = SystemConfig(seed=11, partition_records=8)


def analyzed(run, *args, **kwargs):
    """``(run(...) result, events, paths)`` with the sanitizer in raise
    mode around both the run and the analysis."""
    bus = TelemetryBus()
    with instrument.instrumented(
        telemetry=bus, sanitizer=Sanitizer(mode="raise")
    ):
        result = run(*args, **kwargs)
        crit = analyze_critical_paths(bus.events)
    return result, bus.events, crit


def batch_experiment(scheme="bohr", chaos_profile=None, queries=2):
    chaos = None
    if chaos_profile is not None:
        chaos = ChaosConfig(
            faults=build_schedule(chaos_profile, BATCH_TOPOLOGY, seed=13)
        )
    return analyzed(
        run_experiment,
        scheme,
        lambda: build_workload(
            "bigdata-aggregation", BATCH_TOPOLOGY, seed=7, scale=0.15
        ),
        BATCH_TOPOLOGY,
        config=BATCH_CONFIG,
        query_limit=queries,
        chaos=chaos,
    )


class _OneArrival:
    """Stands in for the serve load generator: one query at t = 0."""

    def __init__(self, query_index):
        self.query_index = query_index

    def generate(self, count):
        assert count == 1
        return [
            Arrival(index=0, time=0.0, tenant="tenant-00",
                    query_index=self.query_index)
        ]


class TestBatchQueries:
    @pytest.mark.parametrize("chaos_profile", [None, "flaky-wan", "site-outage"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_one_conserving_path_per_query_span(self, scheme, chaos_profile):
        result, _, crit = batch_experiment(scheme, chaos_profile)
        runs = result.runs + result.baseline_runs
        assert [path.qct for path in crit.paths] == [run.qct for run in runs]
        assert [path.tenant for path in crit.paths] == (
            [scheme] * len(result.runs)
            + ["vanilla-baseline"] * len(result.baseline_runs)
        )
        assert [path.index for path in crit.paths] == list(range(len(runs)))
        for path in crit.paths:
            assert path.status == "executed"
            assert path.queue_wait == path.slot_wait == 0.0
            assert path.cached_seconds == 0.0
            assert abs(path.residual) <= 1e-9
        assert crit.blame == {} and crit.query_blame == {}

    def test_faults_reach_the_decomposed_archives(self):
        # The chaos cases above must not pass by being benign.
        _, benign, _ = batch_experiment("spark")
        _, outage, crit = batch_experiment("spark", "site-outage")
        assert not any(event.kind == "flow-fail" for event in benign)
        assert any(event.kind == "flow-fail" for event in outage)
        assert crit.max_residual() <= 1e-9

    def test_batch_is_a_serve_session_of_one(self):
        """ROADMAP item 3 as a property: on one prepared system, a query
        run by ``Controller.run_query``, then served alone (one tenant,
        cache off, arriving at t = 0), then run again decomposes
        identically all three times."""
        controller = make_system("bohr", BATCH_TOPOLOGY, BATCH_CONFIG)
        workload = build_workload("tpcds", BATCH_TOPOLOGY, seed=7, scale=0.15)
        controller.prepare(workload)
        solo = ServeConfig(seed=11, num_tenants=1, num_queries=1, cache_capacity=0)
        bounds = set()
        for position, query in enumerate(workload.queries):
            scheduler = ServeScheduler(controller, workload, solo)
            scheduler.loadgen = _OneArrival(position)
            paths = []
            for run, args in (
                (controller.run_query, (workload, query)),
                (scheduler.run, ()),
                (controller.run_query, (workload, query)),
            ):
                _, _, crit = analyzed(run, *args)
                [path] = crit.paths
                paths.append((
                    path.qct, path.components,
                    path.bound, path.crit_site, path.crit_src,
                ))
            assert paths[0] == paths[1] == paths[2]  # lint: allow[R004]
            bounds.add(paths[0][2])
        assert "wan" in bounds

    def test_serve_paths_unmoved_by_a_trailing_batch_span(self, tmp_path):
        archive = tmp_path / "serve.jsonl"
        assert main([
            "serve", "--tenants", "3", "--queries", "12", "--seed", "11",
            "--cache-size", "4", "--telemetry", str(archive),
        ]) == 0
        _, serve_events = load_jsonl(str(archive))
        serve = analyze_critical_paths(serve_events)
        # The digest `make serve-smoke` prints (CI gates on its equality);
        # moved when the RDD clustering cost became a sim-clock charge.
        assert serve.digest() == (
            "ba1298e2f3d0109d34e189bbe5e08bef"
            "8e85ac6bc9a81217db5b0e4e874df37a"
        )
        _, batch_events, batch = batch_experiment("spark", queries=1)
        mixed = analyze_critical_paths(serve_events + batch_events)
        assert mixed.paths == serve.paths + batch.paths
        assert len(batch.paths) == 2  # the scheme's query and its baseline
        assert mixed.blame == serve.blame
        assert mixed.query_blame == serve.query_blame

    def test_inspect_breakdown_reads_the_archive_not_the_spans(
        self, tmp_path, capsys
    ):
        _, events, crit = batch_experiment()
        archive, trace = tmp_path / "tele.jsonl", tmp_path / "trace.jsonl"
        write_jsonl(events, str(archive))
        trace.write_text("".join(  # a span trace: one span dict per line
            json.dumps({"span_id": span.span_id, "name": span.name}) + "\n"
            for span in spans_from_events(events)
        ))

        assert main(["inspect", str(archive)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("critical path: 4 queries"):]
        assert table.strip() == render_components(crit)
        shares = []
        for name in COMPONENTS:
            label = name.replace("_seconds", "").replace("_", " ")
            [row] = re.findall(rf"^\| {label} +\| +[\d.]+ +\| +([\d.]+) +\|$", table, re.M)
            shares.append(float(row))
        assert all(0.0 <= share <= 100.0 for share in shares)
        assert sum(shares) == pytest.approx(100.0, abs=0.05)
        assert "wan-bound" in table and "max residual" in table

        assert main(["inspect", str(trace)]) == 2
        assert "span traces are no longer read" in capsys.readouterr().err

    def test_report_draws_batch_paths(self):
        _, events, _ = batch_experiment()
        page = render_report(events)
        assert "Per-query critical-path stacked bars" in page
        assert "q0 · bohr" in page and "q3 · vanilla-baseline" in page
        assert "No contention to attribute" in page
