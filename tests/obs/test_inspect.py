"""Inspection report + end-to-end instrumented experiment invariants."""

import json

import pytest

from repro.cli import main
from repro.obs import Span, instrument, metrics_from_events, spans_from_events
from repro.obs.critpath import analyze_critical_paths, render_components
from repro.obs.telemetry import write_jsonl
from repro.obs.inspect import (
    overall_coverage,
    query_coverage,
    render_inspection,
    stage_breakdown,
)


def run_instrumented_experiment():
    from repro.core.runner import run_experiment
    from repro.systems.base import SystemConfig
    from repro.wan.presets import ec2_ten_sites
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.bigdata import bigdata_workload

    topology = ec2_ten_sites(base_uplink="1MB/s", machines=1,
                             executors_per_machine=2)
    spec = WorkloadSpec(records_per_site=20, record_bytes=50_000,
                        num_datasets=1)
    config = SystemConfig(lag_seconds=6.0, partition_records=8)

    def factory():
        return bigdata_workload(topology, seed=13, spec=spec,
                                flavour="aggregation")

    with instrument.instrumented() as obs:
        result = run_experiment("bohr", factory, topology, config,
                                query_limit=2)
    return result, obs.telemetry.events


class TestEndToEndTrace:
    @pytest.fixture(scope="class")
    def experiment(self):
        return run_instrumented_experiment()

    def test_spans_cover_reported_qct(self, experiment):
        """The acceptance bar: spans cover >= 95% of every query's QCT."""
        _, events = experiment
        spans = spans_from_events(events)
        rows = query_coverage(spans)
        assert rows, "no query spans traced"
        for row in rows:
            assert row["coverage"] >= 0.95
        assert overall_coverage(spans) >= 0.95

    def test_all_stages_present(self, experiment):
        _, events = experiment
        stages = {span.stage for span in spans_from_events(events)}
        assert {
            "experiment", "prepare", "probe", "placement", "movement",
            "query", "map", "shuffle", "reduce", "wan", "cube",
        } <= stages

    def test_query_spans_carry_qct(self, experiment):
        result, events = experiment
        scheme_queries = [
            span
            for span in spans_from_events(events)
            if span.stage == "query" and span.attrs.get("scheme") == "bohr"
        ]
        assert len(scheme_queries) == len(result.runs)
        for span, run in zip(scheme_queries, result.runs):
            assert span.attrs["qct"] == pytest.approx(run.qct)

    def test_metrics_cover_the_paper_tables(self, experiment):
        _, events = experiment
        names = {record["name"] for record in metrics_from_events(events)}
        assert {
            "shuffle_bytes",          # bytes per link
            "combiner_input_bytes",   # combiner hit rate
            "combiner_output_bytes",
            "lp_solve_seconds",       # Table 5
            "similarity_check_seconds",  # Table 3
            "probe_records",          # Table 2
            "wan_filling_rounds",     # progressive filling
            "qct_seconds",
        } <= names

    def test_breakdown_renders(self, experiment):
        _, events = experiment
        report = render_inspection(spans_from_events(events))
        assert "per-stage latency breakdown" in report
        assert "QCT span coverage" in report
        assert "shuffle" in report
        assert "% QCT" not in report  # attribution is the critpath table's
        table = render_components(analyze_critical_paths(events))
        assert "critical path: 4 queries" in table
        assert "wan contention" in table and "max residual" in table

    def test_stage_shares_bounded(self, experiment):
        """The component shares partition the total QCT."""
        _, events = experiment
        crit = analyze_critical_paths(events)
        total = sum(path.qct for path in crit.paths)
        shares = [
            100.0 * seconds / total
            for seconds in crit.component_totals().values()
        ]
        assert all(0.0 <= share <= 100.0 for share in shares)
        assert sum(shares) == pytest.approx(100.0)

    def test_inspect_cli_round_trip(self, experiment, tmp_path, capsys):
        """``inspect ARCHIVE``: the span table, then the critical-path
        components, from the one archive; ``--chrome`` converts it."""
        _, events = experiment
        archive = tmp_path / "tele.jsonl"
        write_jsonl(events, str(archive))
        chrome = tmp_path / "trace.json"
        assert main(["inspect", str(archive), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        table = render_inspection(spans_from_events(events), source=str(archive))
        components = render_components(analyze_critical_paths(events))
        assert out.startswith(f"{table}\n\n{components}\n")
        assert "per-stage latency breakdown" in out
        assert "QCT span coverage" in out
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]


class TestCoverageMath:
    def test_union_ignores_overlap(self):
        spans = [
            Span(span_id=0, name="q", stage="query", sim_start=0.0,
                 sim_end=10.0, attrs={"qct": 10.0}),
            Span(span_id=1, name="a", stage="map", parent_id=0,
                 sim_start=0.0, sim_end=6.0),
            Span(span_id=2, name="b", stage="map", parent_id=0,
                 sim_start=2.0, sim_end=6.0),
        ]
        [row] = query_coverage(spans)
        assert row["covered"] == pytest.approx(6.0)
        assert row["coverage"] == pytest.approx(0.6)

    def test_gap_reduces_coverage(self):
        spans = [
            Span(span_id=0, name="q", stage="query", sim_start=0.0,
                 sim_end=10.0, attrs={"qct": 10.0}),
            Span(span_id=1, name="a", stage="map", parent_id=0,
                 sim_start=0.0, sim_end=4.0),
            Span(span_id=2, name="b", stage="reduce", parent_id=0,
                 sim_start=8.0, sim_end=10.0),
        ]
        [row] = query_coverage(spans)
        assert row["coverage"] == pytest.approx(0.6)

    def test_descendants_clip_to_qct(self):
        spans = [
            Span(span_id=0, name="q", stage="query", sim_start=0.0,
                 sim_end=5.0, attrs={"qct": 5.0}),
            Span(span_id=1, name="a", stage="map", parent_id=0,
                 sim_start=-1.0, sim_end=99.0),
        ]
        [row] = query_coverage(spans)
        assert row["coverage"] == pytest.approx(1.0)

    def test_no_queries_means_full_coverage(self):
        assert overall_coverage([]) == 1.0
