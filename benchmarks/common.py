"""Shared setup for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Scale is
reduced relative to the paper's 400 GB / 10-region AWS deployment — each
record stands for 512 KB, ~100 records per site, 3 datasets instead of
300 — but the topology (ten regions, 5x/2.5x/1x bandwidth tiers), the
schemes, and the workload families are the paper's.  Absolute numbers
therefore differ; the *shape* (who wins, by roughly what factor, what is
monotone in what) is asserted.

Experiments are cached per (scheme, workload, placement, knobs, seed) so
the many benches sharing a configuration do not recompute it.  The
``repro bench`` harness clears this cache before every timed repetition
(see :func:`repro.bench.registry.register_reset_hook`), so wall-clock
medians measure the cold path.

**Seeds come from the harness**: scripts call :func:`bench_seed` (or
derive sub-streams from it) instead of hard-coding constants, so
``repro bench --seed N`` shifts the whole suite to a new randomness
universe.  Lint rule R007 rejects hard-coded seeds under
``benchmarks/``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

from repro import SystemConfig, ec2_ten_sites
from repro.bench import bench_seed, register_bench, register_reset_hook
from repro.core.runner import ExperimentResult, run_experiment
from repro.wan.topology import WanTopology
from repro.workloads.base import Workload, WorkloadSpec

#: The five workload columns of Figures 6/7/10.
WORKLOAD_KINDS = (
    "bigdata-scan",
    "bigdata-udf",
    "bigdata-aggregation",
    "tpcds",
    "facebook",
)

#: Pretty labels matching the paper's x axes.
WORKLOAD_LABELS = {
    "bigdata-scan": "Big data (scan)",
    "bigdata-udf": "Big data (UDF)",
    "bigdata-aggregation": "Big data (aggr)",
    "tpcds": "TPC-DS",
    "facebook": "Facebook",
}

HEADLINE_SCHEMES = ("iridium", "iridium-c", "bohr")
ABLATION_SCHEMES = ("iridium-c", "bohr-sim", "bohr-joint", "bohr-rdd")

QUERY_LIMIT = 6

BENCH_SPEC = WorkloadSpec(
    records_per_site=100,
    record_bytes=512 * 1024,
    num_datasets=3,
    locality_bias=0.5,
)


def bench_topology() -> WanTopology:
    """The ten-region EC2 topology at bench scale."""
    return ec2_ten_sites(base_uplink="2MB/s")


def bench_config(**overrides) -> SystemConfig:
    """Default scheme configuration for benches (paper defaults: k=30)."""
    settings = dict(
        lag_seconds=8.0, partition_records=8, probe_k=30, seed=bench_seed()
    )
    settings.update(overrides)
    return SystemConfig(**settings)


def workload_factory(
    kind: str, placement: str = "random", seed: int = None
) -> Callable[[], Workload]:
    topology = bench_topology()
    if seed is None:
        seed = bench_seed()

    def build_with_spec() -> Workload:
        from repro.workloads.bigdata import bigdata_workload
        from repro.workloads.facebook import facebook_workload
        from repro.workloads.placement_init import InitialPlacement
        from repro.workloads.tpcds import tpcds_workload

        placement_enum = InitialPlacement(placement)
        if kind.startswith("bigdata"):
            _, _, flavour = kind.partition("-")
            return bigdata_workload(
                topology, placement=placement_enum, seed=seed,
                spec=BENCH_SPEC, flavour=flavour or "all",
            )
        if kind == "tpcds":
            return tpcds_workload(
                topology, placement=placement_enum, seed=seed, spec=BENCH_SPEC
            )
        return facebook_workload(
            topology, placement=placement_enum, seed=seed, spec=BENCH_SPEC
        )

    return build_with_spec


@lru_cache(maxsize=None)
def _run_scheme_cached(
    scheme: str,
    kind: str,
    placement: str,
    probe_k: int,
    lag_seconds: float,
    seed: int,
) -> ExperimentResult:
    topology = bench_topology()
    config = bench_config(probe_k=probe_k, lag_seconds=lag_seconds, seed=seed)
    return run_experiment(
        scheme,
        workload_factory(kind, placement, seed=seed),
        topology,
        config,
        query_limit=QUERY_LIMIT,
    )


def run_scheme(
    scheme: str,
    kind: str,
    placement: str = "random",
    probe_k: int = 30,
    lag_seconds: float = 8.0,
) -> ExperimentResult:
    """One cached experiment: scheme x workload x placement (+ knobs).

    The cache is keyed by the harness seed too, so ``repro bench --seed``
    can never serve results from a different randomness universe.
    """
    return _run_scheme_cached(
        scheme, kind, placement, probe_k, lag_seconds, bench_seed()
    )


register_reset_hook(_run_scheme_cached.cache_clear)


# ----------------------------------------------------------------------
# harness metric helpers (used by the per-script register_bench hooks)
# ----------------------------------------------------------------------


def experiment_sim_metrics(
    result: ExperimentResult, label: str
) -> Dict[str, float]:
    """The paper's sim-clock observables for one experiment.

    All lower-is-better: mean QCT seconds, WAN bytes shuffled by the
    scheme's queries, total intermediate bytes, and the RDD clustering
    cost charged to the queries' map stages.
    """
    return {
        f"qct.{label}": result.mean_qct,
        f"wan_bytes.{label}": sum(run.wan_bytes for run in result.runs),
        f"intermediate_bytes.{label}": sum(
            sum(run.intermediate_bytes_by_site.values())
            for run in result.runs
        ),
        f"rdd_overhead_seconds.{label}": sum(
            run.rdd_overhead_seconds for run in result.runs
        ),
    }


def experiment_wall_metrics(
    result: ExperimentResult, label: str
) -> Dict[str, float]:
    """Offline-prep wall costs for one experiment (solver, probes)."""
    return {
        f"lp_seconds.{label}": result.prep.lp_solve_seconds,
        f"probe_build_seconds.{label}": result.prep.probe_build_seconds,
    }


def qct_case(schemes, kinds, placement: str, probe_k: int = 30):
    """A standard harness case body: QCT/WAN metrics for a scheme grid."""
    sim: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for scheme in schemes:
        for kind in kinds:
            result = run_scheme(scheme, kind, placement, probe_k=probe_k)
            label = f"{scheme}.{kind}"
            sim.update(experiment_sim_metrics(result, label))
            wall.update(experiment_wall_metrics(result, label))
    return {"sim": sim, "wall": wall}
