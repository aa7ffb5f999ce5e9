"""End-to-end serving: determinism, fairness, shedding, cache reuse.

These drive the full stack — workload build, scheme prep, the shared
WAN clock, WFQ admission, and the cube cache — at a deliberately small
scale (2 datasets, 30 records/site, 1 machine/site).
"""

import json

import pytest

from repro.obs.telemetry import telemetry_digest
from repro.serve import ServeConfig, serve_workload
from repro.systems.base import SystemConfig
from repro.wan.presets import ec2_ten_sites
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

SPEC = WorkloadSpec(records_per_site=30, record_bytes=100_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=6.0, partition_records=8)


def topology():
    return ec2_ten_sites(
        base_uplink="1MB/s", machines=1, executors_per_machine=2
    )


def run(serve_config, topo=None, scheme="bohr"):
    topo = topo or topology()

    def factory():
        return bigdata_workload(
            topo, seed=13, spec=SPEC, flavour="aggregation"
        )

    return serve_workload(scheme, factory, topo, CONFIG, serve_config)


class TestDeterminism:
    def test_same_seed_bit_identical_digest(self):
        config = ServeConfig(seed=11, num_tenants=3, num_queries=12)
        first = run(config)
        second = run(config)
        assert first.sim_digest() == second.sim_digest()
        assert first.p99_qct == second.p99_qct
        assert first.makespan == second.makespan

    def test_report_round_trips_through_json(self):
        # Guards the WAN session's columns leaking a non-builtin number
        # into what the digest and the JSON report format.
        report = run(ServeConfig(seed=11, num_tenants=3, num_queries=12))
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["sim_digest"] == report.sim_digest()
        assert report.completed
        for query in report.completed:
            assert type(query.finish) is float
            assert type(query.wan_bytes) is float

    def test_different_seed_differs(self):
        first = run(ServeConfig(seed=11, num_tenants=3, num_queries=12))
        second = run(ServeConfig(seed=12, num_tenants=3, num_queries=12))
        assert first.sim_digest() != second.sim_digest()

    def test_telemetry_is_pure_observer(self, monkeypatch):
        from repro.obs import instrument, span, views
        from repro.obs.telemetry import TelemetryBus

        def forbidden(*args, **kwargs):
            raise AssertionError("the bus is the only recorder")

        config = ServeConfig(seed=11, num_tenants=2, num_queries=8)
        plain = run(config)
        bus = TelemetryBus()
        with monkeypatch.context() as patch:
            # An observed serve run builds no Span and no metric series.
            patch.setattr(span.Span, "__init__", forbidden)
            patch.setattr(views, "_series", forbidden)
            with instrument.instrumented(telemetry=bus):
                observed = run(config)
        assert plain.sim_digest() == observed.sim_digest()
        kinds = {event.kind for event in bus.events}
        assert {"serve-queue", "serve-admit", "serve-start",
                "serve-finish"} <= kinds

    def test_cli_run_stream_equals_the_parent_commit(self, tmp_path, capsys):
        """``repro serve --tenants 3 --queries 12 --seed 11 --cache-size
        4``: the whole event stream, digested at 2081b01 (before the WAN
        run machinery moved onto ``WanSession`` and the serve handlers
        stopped threading run state as parameters); re-digested when the
        RDD clustering cost became a sim-clock charge, which serve used to
        switch off: 60 map stages now pay a clustering pass, and the flows
        they delay split into 77 more samples (4125 events before);
        re-digested when Iridium's greedy stopped solving a task LP per
        candidate chunk: three ``lp-solve`` span pairs went and nothing
        else moved (4202 events before; see the last test); re-digested
        when the simplex warm start went: every ``lp-solve`` span-end lost
        its ``warm_started`` flag and nothing else moved — put back, it
        gives the digest pinned before (``be1603e9…``)."""
        from tests.placement.reference_lp import with_warm_started

        _header, events = self.served(tmp_path, capsys)
        assert len(events) == 4196
        assert telemetry_digest(events) == SERVE_DIGEST
        assert telemetry_digest(with_warm_started(events)) == (
            "be1603e97677e586210f602d788023efea7229d80939b44beb7178e1ebd38061"
        )

    def test_the_lp_priced_greedy_gives_back_the_parent_stream(self, tmp_path, capsys):
        """With Iridium's greedy priced by task LPs again and the
        ``warm_started`` flag put back, the run emits that parent's stream
        (4202 events, digest ``d4ea21de…``); without the events of those
        pricing solves — ``lp-solve`` span pairs, nothing else — it is
        this commit's."""
        from tests.placement.reference_lp import lp_priced_greedy, with_warm_started

        with lp_priced_greedy() as pricing:
            _header, events = self.served(tmp_path, capsys)
        assert len(events) == 4202
        assert telemetry_digest(with_warm_started(events)) == (
            "d4ea21de28b43f8977a8bf7da579f0fa4bdd356cda13eddc03b784f6a74d1759"
        )
        assert {(events[seq].kind, events[seq].attrs["name"]) for seq in pricing} == {
            ("span-begin", "lp-solve"), ("span-end", "lp-solve"),
        }
        dropped = set(pricing)
        kept = [event for event in events if event.seq not in dropped]
        assert len(kept) == 4196
        assert telemetry_digest(kept) == SERVE_DIGEST  # seq is not digested

    @staticmethod
    def served(tmp_path, capsys):
        from repro.cli import main
        from repro.obs.telemetry import load_jsonl

        archive = tmp_path / "serve.jsonl"
        assert main([
            "serve", "--tenants", "3", "--queries", "12", "--seed", "11",
            "--cache-size", "4", "--telemetry", str(archive),
        ]) == 0
        capsys.readouterr()
        return load_jsonl(str(archive))


#: ``repro serve --tenants 3 --queries 12 --seed 11 --cache-size 4``'s stream.
SERVE_DIGEST = "24e84c3cd44608d577a4f9b94439b4201cb1e95798a642f3012a2061601a1095"


class TestAccounting:
    def test_every_arrival_accounted(self):
        report = run(ServeConfig(seed=11, num_tenants=3, num_queries=15))
        assert len(report.queries) == 15
        statuses = {query.status for query in report.queries}
        assert statuses <= {"executed", "cached", "shed"}
        assert len(report.completed) + report.shed == 15
        offered = sum(tenant.offered for tenant in report.tenants)
        assert offered == 15

    def test_completions_ordered_sanely(self):
        report = run(ServeConfig(seed=11, num_tenants=3, num_queries=12))
        for query in report.completed:
            assert query.finish >= query.arrival
            if query.status == "executed":
                assert query.admit >= query.arrival
                assert query.start >= query.admit
                assert query.finish > query.start
        assert report.makespan == max(q.finish for q in report.completed)


class TestFairness:
    # Sustained overload (arrivals outpace the single service slot,
    # shallow queues shed the excess) so WFQ admission — not eventual
    # completion of everything queued — controls who gets served.
    # Iridium keeps data in place, so queries pay real WAN seconds and
    # a backlog actually forms at this scale.
    SUSTAINED = dict(
        seed=11, num_tenants=2, num_queries=40,
        arrival_rate=4.0, zipf_s=0.0,  # uniform offered load
        max_inflight=1, max_inflight_per_tenant=1,
        queue_depth=2, cache_capacity=0,
    )

    def test_weighted_tenants_admit_proportionally(self):
        report = run(
            ServeConfig(tenant_weights=(2.0, 1.0), **self.SUSTAINED),
            scheme="iridium",
        )
        by_name = {tenant.name: tenant for tenant in report.tenants}
        heavy = by_name["tenant-00"]
        light = by_name["tenant-01"]
        assert heavy.executed > light.executed
        assert heavy.shed < light.shed
        assert report.fairness > 0.9

    def test_equal_weights_near_perfect_jain(self):
        report = run(ServeConfig(**self.SUSTAINED), scheme="iridium")
        assert report.fairness > 0.95


class TestOverload:
    def test_sheds_beyond_queue_depth(self):
        report = run(ServeConfig(
            seed=11, num_tenants=2, num_queries=20,
            arrival_rate=100.0,  # burst: everything arrives at once
            max_inflight=1, max_inflight_per_tenant=1,
            queue_depth=2, cache_capacity=0,
        ), scheme="iridium")
        assert report.shed > 0
        # Queued work is bounded: at most depth + inflight per tenant
        # ever admitted+queued, the rest shed.
        assert len(report.completed) + report.shed == 20
        shed_events = [q for q in report.queries if q.status == "shed"]
        for query in shed_events:
            assert query.finish is None

    def test_no_shedding_when_queues_deep(self):
        report = run(ServeConfig(
            seed=11, num_tenants=2, num_queries=20,
            arrival_rate=100.0,
            max_inflight=1, max_inflight_per_tenant=1,
            queue_depth=20, cache_capacity=0,
        ), scheme="iridium")
        assert report.shed == 0


class TestCacheReuse:
    def test_repeat_slices_served_from_cache(self):
        # Arrivals spaced far beyond a query's service time, so every
        # repeat of an already-executed slice finds it materialized.
        report = run(ServeConfig(
            seed=11, num_tenants=2, num_queries=12,
            arrival_rate=0.001,  # ~1000s apart >> any QCT here
            cache_capacity=32,
        ), scheme="iridium")
        assert report.cache_hits > 0
        cached = [q for q in report.queries if q.status == "cached"]
        assert len(cached) == report.cache_hits
        for query in cached:
            assert query.finish == pytest.approx(
                query.arrival + report.config.cache_serve_seconds
            )
            assert query.wan_bytes == 0.0
        # Executed queries cost WAN bytes; cached ones must not.
        assert any(q.wan_bytes > 0 for q in report.queries
                   if q.status == "executed")

    def test_disabled_cache_never_hits(self):
        report = run(ServeConfig(
            seed=11, num_tenants=2, num_queries=12,
            arrival_rate=0.001, cache_capacity=0,
        ), scheme="iridium")
        assert report.cache_hits == 0
        assert all(q.status != "cached" for q in report.queries)


class TestReportShape:
    def test_to_dict_and_histogram(self):
        report = run(ServeConfig(seed=11, num_tenants=2, num_queries=10))
        payload = report.to_dict()
        assert payload["queries"] == 10
        assert payload["sim_digest"] == report.sim_digest()
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0
        hist = report.latency_histogram(bins=8)
        assert len(hist["counts"]) == 8
        assert len(hist["edges"]) == 9
        assert sum(hist["counts"]) == len(report.completed)
