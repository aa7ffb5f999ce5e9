"""Table 4 — overhead of runtime RDD similarity checking vs #executors.

Paper (TPC-DS, k=30): checking time grows with executors per node
(0.42s @ 2 → 3.06s @ 8) and remains a small fraction of QCT.
Reproduced shape: overhead grows with executor count; QCT improves with
parallelism and the overhead never dominates it.
"""

from common import bench_config, bench_seed, register_bench
from repro import ec2_ten_sites, make_system
from repro.util.tabulate import format_table
from repro.workloads.base import WorkloadSpec
from repro.workloads.tpcds import tpcds_workload

EXECUTOR_COUNTS = (2, 4, 6, 8)


def run_with_executors(executors):
    topology = ec2_ten_sites(
        base_uplink="2MB/s", machines=1, executors_per_machine=executors
    )
    workload = tpcds_workload(
        topology,
        seed=bench_seed(),
        spec=WorkloadSpec(records_per_site=100, record_bytes=512 * 1024,
                          num_datasets=2),
    )
    controller = make_system(
        "bohr-rdd",
        topology,
        bench_config(partition_records=4),
    )
    controller.prepare(workload)
    jobs = controller.run_all_queries(workload, limit=4)
    overhead = sum(job.total_rdd_overhead_seconds for job in jobs) / len(jobs)
    qct = sum(job.qct for job in jobs) / len(jobs)
    return overhead, qct


@register_bench(
    "tab4-rdd-overhead",
    suites=("tables",),
    description="RDD similarity-check overhead and QCT vs executors per node",
)
def bench_tab4_rdd_overhead():
    sim = {}
    for executors in EXECUTOR_COUNTS:
        overhead, qct = run_with_executors(executors)
        sim[f"qct.executors{executors}"] = qct
        sim[f"rdd_overhead_seconds.executors{executors}"] = overhead
    return {"sim": sim, "wall": {}}


def test_tab4_rdd_overhead(benchmark):
    rows = []
    overheads = {}
    qcts = {}
    for executors in EXECUTOR_COUNTS:
        overhead, qct = run_with_executors(executors)
        overheads[executors] = overhead
        qcts[executors] = qct
        rows.append(
            [executors, f"{overhead * 1000:.2f}ms", f"{qct:.3f}s"]
        )
    print()
    print(format_table(
        rows,
        headers=["# executors in a node", "RDD similarity checking", "QCT"],
        title="Table 4: overhead of RDD similarity checking (TPC-DS, k=30)",
    ))

    # Shape: more executors => more clustering work.
    ordered = [overheads[executors] for executors in EXECUTOR_COUNTS]
    assert ordered == sorted(ordered)
    # Overhead stays mild relative to QCT (the paper's conclusion).
    for executors in EXECUTOR_COUNTS:
        assert overheads[executors] < max(qcts[executors], 1e-9) * 2.0

    benchmark.pedantic(lambda: run_with_executors(4), rounds=1, iterations=1)
