"""Serving benchmarks — tail latency and fairness under concurrent load.

Unlike the figure/table benches (one query at a time on a private
clock), these cases drive the :mod:`repro.serve` scheduler: an open-loop
Zipf workload over one shared simulation clock, so queries contend for
WAN uplinks and per-site map slots.  Reported observables are the
serving-side ones the paper's recurring-query setting implies: p50/p99
QCT, weighted fairness, cache effectiveness, and shedding under
overload.

All sim metrics follow the harness lower-is-better convention, so
fairness is recorded as ``unfairness = 1 - Jain`` and the cache as its
miss rate.
"""

import time

import pytest

from common import bench_config, bench_topology, workload_factory
from repro.bench import bench_seed, register_bench
from repro.obs import instrument
from repro.obs.critpath import analyze_critical_paths
from repro.obs.slo import SloTracker, parse_slo_targets
from repro.obs.telemetry import TelemetryBus
from repro.serve import ServeConfig, serve_workload
from repro.util.tabulate import format_table


def run_serve(**overrides):
    defaults = dict(
        seed=bench_seed(),
        num_tenants=4,
        num_queries=32,
        arrival_rate=2.0,
        zipf_s=1.1,
        cache_capacity=8,
        tenant_weights=(2.0, 1.0, 1.0, 1.0),
    )
    defaults.update(overrides)
    return serve_workload(
        "bohr",
        workload_factory("bigdata-aggregation"),
        bench_topology(),
        bench_config(),
        ServeConfig(**defaults),
    )


def serve_sim_metrics(report, label):
    return {
        f"p50_qct.{label}": report.p50_qct,
        f"p99_qct.{label}": report.p99_qct,
        f"mean_qct.{label}": report.mean_qct,
        f"makespan.{label}": report.makespan,
        f"wan_bytes.{label}": report.total_wan_bytes,
        f"unfairness.{label}": 1.0 - report.fairness,
        f"cache_miss_rate.{label}": 1.0 - report.cache_hit_rate,
        f"shed.{label}": float(report.shed),
    }


@register_bench(
    "serve-load",
    suites=("serve",),
    description="p50/p99 QCT and fairness serving a Zipf multi-tenant load",
)
def bench_serve_load():
    report = run_serve()
    return {
        "sim": serve_sim_metrics(report, "load"),
        "wall": {"serve_wall_seconds.load": report.wall_seconds},
    }


@register_bench(
    "serve-overload",
    suites=("serve",),
    description="admission control and shedding under a burst arrival rate",
)
def bench_serve_overload():
    report = run_serve(
        arrival_rate=20.0,
        max_inflight=4,
        max_inflight_per_tenant=2,
        queue_depth=2,
    )
    return {
        "sim": serve_sim_metrics(report, "overload"),
        "wall": {"serve_wall_seconds.overload": report.wall_seconds},
    }


@register_bench(
    "serve-slo",
    suites=("serve",),
    description="critical-path decomposition and SLO burn over a contended load",
)
def bench_serve_slo():
    """Serve under contention, then attribute where the time went.

    The serve run itself is identical to ``serve-load`` modulo config
    (telemetry recording is a pure observer — the bit-identity gate in
    tests/serve covers that), so the sim metrics here are the *analyzer*
    observables: queue/slot/WAN-contention seconds on the critical path,
    the conservation residual, and the worst SLO burn rate.  All
    lower-is-better.
    """
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        report = run_serve(arrival_rate=6.0, cache_capacity=4)
    started = time.perf_counter()  # lint: allow[R001]
    crit = analyze_critical_paths(bus.events)
    tenants = sorted({query.tenant for query in report.queries})
    specs = parse_slo_targets([f"default={report.p50_qct:.6f}"], tenants)
    tracker = SloTracker(specs)
    tracker.observe_events(bus.events)
    slo = tracker.finalize(report.makespan)
    analyze_wall = time.perf_counter() - started  # lint: allow[R001]
    totals = crit.component_totals()
    worst_burn = max(
        (slo.burn_rate(tenant, window) for tenant, window in slo.windows),
        default=0.0,
    )
    return {
        "sim": {
            "queue_wait.slo": totals["queue_wait"],
            "slot_wait.slo": totals["slot_wait"],
            "wan_serial.slo": totals["wan_serial"],
            "wan_contention.slo": totals["wan_contention"],
            "max_residual.slo": crit.max_residual(),
            "worst_burn_rate.slo": worst_burn,
            "slo_violations.slo": float(
                sum(row.violations for row in slo.rows)
            ),
        },
        "wall": {"analyze_wall_seconds.slo": analyze_wall},
    }


@pytest.fixture(scope="module")
def serve_reports():
    return {"load": run_serve(), "overload": run_serve(
        arrival_rate=20.0, max_inflight=4, max_inflight_per_tenant=2,
        queue_depth=2,
    )}


def test_serve_load_shape(benchmark, serve_reports):
    rows = [
        [
            label,
            f"{report.p50_qct:.3f}s",
            f"{report.p99_qct:.3f}s",
            f"{report.fairness:.3f}",
            f"{100.0 * report.cache_hit_rate:.1f}%",
            str(report.shed),
        ]
        for label, report in serve_reports.items()
    ]
    print()
    print(format_table(
        rows,
        headers=["case", "p50 QCT", "p99 QCT", "fairness", "cache", "shed"],
        title="Serving: tail latency under concurrent Zipf load",
    ))

    load = serve_reports["load"]
    overload = serve_reports["overload"]
    # Every offered query is accounted for, and the open-loop burst
    # sheds while the moderate load does not.
    assert len(load.queries) == load.config.num_queries
    assert load.shed == 0
    assert overload.shed > 0
    # Tail is at least the median on both clocks (shedding means the
    # overload tail is over a *smaller* completed set, so the two cases
    # are not comparable to each other).
    assert load.p99_qct >= load.p50_qct > 0.0
    assert overload.p99_qct >= overload.p50_qct > 0.0
    # Same seed => bit-identical serving schedule (the CI serve gate).
    assert run_serve().sim_digest() == load.sim_digest()

    benchmark.pedantic(lambda: serve_reports, rounds=1, iterations=1)
