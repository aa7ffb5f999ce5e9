"""Table 7 — QCT under highly dynamic datasets vs the normal setting.

Paper: per-workload mean QCT with batched arrivals (10 GB initial + 2 GB
every 20 s, replanning every 5 queries) is nearly identical to the
static setting, because new batches are pre-processed and moved inside
the query lag.
"""

import pytest

from common import bench_config, bench_topology, register_bench, workload_factory
from repro import make_system
from repro.core.dynamic import initial_workload_from_feeds, run_dynamic
from repro.util.stats import mean
from repro.util.tabulate import format_table
from repro.workloads.dynamic import DynamicDataFeed

KINDS = ("tpcds", "facebook", "bigdata-aggregation")
NUM_QUERIES = 8


def run_pair(kind):
    topology = bench_topology()
    config = bench_config()

    # Dynamic: 25% initial + 15 batches (the paper's 10GB + 2GB shape).
    template = workload_factory(kind)()
    feeds = {
        dataset.dataset_id: DynamicDataFeed.split(
            dataset, initial_fraction=0.25, num_batches=15, interval_seconds=20.0
        )
        for dataset in template.catalog
    }
    dynamic_workload = initial_workload_from_feeds(template, feeds)
    dynamic_controller = make_system("bohr", topology, config)
    dynamic = run_dynamic(
        dynamic_controller, dynamic_workload, feeds,
        num_queries=NUM_QUERIES, replan_every=5,
    )

    # Normal: full data from the start.
    normal_workload = workload_factory(kind)()
    normal_controller = make_system("bohr", topology, config)
    normal_controller.prepare(normal_workload)
    normal_jobs = [
        normal_controller.run_query(normal_workload, query)
        for query in normal_workload.queries[:NUM_QUERIES]
    ]
    return mean(job.qct for job in normal_jobs), dynamic.mean_qct


@register_bench(
    "tab7-dynamic",
    suites=("tables",),
    description="Bohr QCT with batched dynamic arrivals vs the static setting",
)
def bench_tab7_dynamic():
    sim = {}
    for kind in KINDS:
        normal, dynamic = run_pair(kind)
        sim[f"qct_normal.{kind}"] = normal
        sim[f"qct_dynamic.{kind}"] = dynamic
    return {"sim": sim, "wall": {}}


@pytest.fixture(scope="module")
def table7():
    return {kind: run_pair(kind) for kind in KINDS}


def test_tab7_dynamic_close_to_normal(benchmark, table7):
    rows = [
        [kind, f"{normal:.3f}s", f"{dynamic:.3f}s"]
        for kind, (normal, dynamic) in table7.items()
    ]
    print()
    print(format_table(
        rows,
        headers=["workload", "normal", "dynamic"],
        title="Table 7: QCT with highly dynamic datasets",
    ))

    for kind, (normal, dynamic) in table7.items():
        # The dynamic run processes <= the normal data volume per query
        # while paying for stale placements; the paper finds the two
        # settings nearly identical.  Assert they stay within 2x.
        assert dynamic <= normal * 2.0 + 1e-6, kind
        assert dynamic > 0.0, kind

    benchmark.pedantic(lambda: table7, rounds=1, iterations=1)
