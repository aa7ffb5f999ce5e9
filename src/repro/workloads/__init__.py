"""Benchmark workloads (§8.1).

Three workload families drive the evaluation, mirroring the paper's:

- :mod:`~repro.workloads.bigdata` — the AMPLab big-data benchmark shape
  (web logs; scan / aggregation / PageRank-UDF queries);
- :mod:`~repro.workloads.tpcds` — a TPC-DS-like retail star schema with
  OLAP SQL queries;
- :mod:`~repro.workloads.facebook` — Facebook-trace-shaped jobs with
  heavy-tailed sizes and Zipf keys.

Generators produce a global record pool; :mod:`~repro.workloads.placement_init`
assigns it to sites uniformly at random or locality-aware, and
:mod:`~repro.workloads.dynamic` feeds batched arrivals for §8.6.

Only the names the benchmark harness and ``build_workload`` callers take
from the package are imported here, and only from modules every batch
run loads anyway; the other families load when ``build_workload`` asks
for them (DESIGN.md "Start-up cost").
"""

from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.dynamic import DynamicDataFeed
from repro.workloads.facebook import facebook_workload
from repro.workloads.placement_init import InitialPlacement
from repro.workloads.tpcds import tpcds_workload

__all__ = [
    "DynamicDataFeed",
    "InitialPlacement",
    "Workload",
    "WorkloadSpec",
    "build_workload",
    "facebook_workload",
    "tpcds_workload",
]


def build_workload(kind, topology, placement="random", seed=7, scale=1.0):
    """Convenience dispatcher: ``kind`` in the five paper workloads.

    ``"bigdata-scan" | "bigdata-udf" | "bigdata-aggregation" | "tpcds" |
    "facebook"``.  ``scale`` multiplies record counts (1.0 is the default
    benchmark size).
    """
    from repro.errors import WorkloadError

    placement_enum = InitialPlacement(placement)
    if kind.startswith("bigdata"):
        from repro.workloads.bigdata import bigdata_workload

        _, _, flavour = kind.partition("-")
        return bigdata_workload(
            topology, placement=placement_enum, seed=seed, scale=scale,
            flavour=flavour or "all",
        )
    if kind == "tpcds":
        return tpcds_workload(topology, placement=placement_enum, seed=seed, scale=scale)
    if kind == "facebook":
        return facebook_workload(topology, placement=placement_enum, seed=seed, scale=scale)
    if kind == "images":
        from repro.workloads.images import images_workload

        return images_workload(topology, placement=placement_enum, seed=seed, scale=scale)
    raise WorkloadError(f"unknown workload kind {kind!r}")
