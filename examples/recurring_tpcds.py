#!/usr/bin/env python
"""Recurring TPC-DS-style analytics with SQL queries.

Shows the controller's recurring-query loop:

1. every query runs with its spec's data-reduction ratio R — the class
   default unless the query names its own — which is the one number both
   the engine's combiner and the placement LP read;
2. a re-prepare uses the bandwidth measured during the first movement
   and fresh similarity info over the data's new layout to re-place data
   and tasks for the next recurrence.

Also demonstrates submitting queries as SQL text through the parser.

Run:  python examples/recurring_tpcds.py
"""

from repro import SystemConfig, ec2_ten_sites, make_system, parse_sql
from repro.query.spec import RecurringQuery
from repro.util.stats import mean
from repro.util.units import format_seconds
from repro.workloads.base import WorkloadSpec
from repro.workloads.placement_init import InitialPlacement
from repro.workloads.tpcds import tpcds_workload


def main() -> None:
    topology = ec2_ten_sites(base_uplink="2MB/s")
    workload = tpcds_workload(
        topology,
        placement=InitialPlacement.LOCALITY,
        seed=23,
        spec=WorkloadSpec(records_per_site=50, record_bytes=512 * 1024,
                          num_datasets=2),
    )
    # Submit two extra hand-written SQL queries through the parser.
    for sql in (
        f"SELECT item, SUM(revenue) FROM {workload.dataset_ids[0]} GROUP BY item",
        f"SELECT region, COUNT(item) FROM {workload.dataset_ids[0]} GROUP BY region",
    ):
        workload.queries.append(RecurringQuery(spec=parse_sql(sql)))

    controller = make_system("bohr", topology, SystemConfig(lag_seconds=8.0))
    report = controller.prepare(workload)
    print(
        f"prepare: built cubes in {report.cube_build_seconds * 1000:.1f} ms, "
        f"{len(report.probes)} probes "
        f"({report.total_probe_bytes} bytes total), "
        f"similarity checking {report.similarity_check_seconds * 1000:.2f} ms, "
        f"LP {report.lp_solve_seconds * 1000:.1f} ms"
    )
    print("reduce-task fractions:",
          {site: round(fraction, 3)
           for site, fraction in report.reduce_fractions.items()
           if fraction > 1e-6})
    print()

    queries = workload.queries[:6]
    print("reduction ratios (the spec's own):")
    for query in queries:
        print(f"  R = {query.spec.default_reduction_ratio()}  for  "
              f"{query.spec.text or query.spec.dataset_id}")

    first_round = [controller.run_query(workload, q) for q in queries]
    print(f"round 1: mean QCT {format_seconds(mean(r.qct for r in first_round))}")

    # Recurring arrival: re-prepare with the measured bandwidth and the
    # cubes reflecting the data's new layout.
    report = controller.prepare(workload)
    second_round = [controller.run_query(workload, q) for q in queries]
    print(f"round 2 (re-placed with the measured bandwidth and the new "
          f"data layout, moved another {report.moved_bytes / 1e6:.1f} MB): "
          f"mean QCT {format_seconds(mean(r.qct for r in second_round))}")


if __name__ == "__main__":
    main()
