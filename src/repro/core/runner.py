"""Experiment runner: one scheme on one workload, with a vanilla baseline.

The paper's data-reduction metric is defined against processing in place
with stock Spark; the runner therefore executes the same queries twice —
once with the scheme under test (after its offline preparation), once
with a vanilla in-place engine — on identical fresh copies of the
workload, and reports QCT and per-site intermediate data for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.runtime import ChaosConfig
from repro.core.controller import PreparationReport
from repro.engine.job import MapReduceEngine
from repro.obs import instrument
from repro.query.compiler import compile_query
from repro.systems.base import SystemConfig
from repro.systems.registry import make_system
from repro.util.stats import mean
from repro.wan.topology import WanTopology
from repro.workloads.base import Workload

#: Builds a fresh identical workload each call (schemes mutate shards).
WorkloadFactory = Callable[[], Workload]


@dataclass
class QueryRun:
    """One query execution's observables."""

    dataset_id: str
    query_text: str
    qct: float
    intermediate_bytes_by_site: Dict[str, float]
    wan_bytes: float
    rdd_overhead_seconds: float


@dataclass
class ExperimentResult:
    """A scheme's full run over a workload."""

    system: str
    workload: str
    prep: PreparationReport
    runs: List[QueryRun] = field(default_factory=list)
    baseline_runs: List[QueryRun] = field(default_factory=list)
    #: Chaos accounting (all zero / None on benign runs; not serialized).
    chaos_profile: Optional[str] = None
    aborted_queries: int = 0
    total_lost_bytes: float = 0.0
    total_retries: int = 0

    @property
    def mean_qct(self) -> float:
        return mean(run.qct for run in self.runs)

    @property
    def baseline_mean_qct(self) -> float:
        return mean(run.qct for run in self.baseline_runs)

    def intermediate_by_site(self, baseline: bool = False) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for run in self.baseline_runs if baseline else self.runs:
            for site, volume in run.intermediate_bytes_by_site.items():
                totals[site] = totals.get(site, 0.0) + volume
        return totals

    def data_reduction_by_site(self) -> Dict[str, float]:
        """Percent intermediate data saved vs in-place vanilla processing.

        Positive: the scheme shrank the site's shuffle data; negative:
        similarity-agnostic movement inflated it (as the paper observes
        for Iridium at some receiving sites, Figure 8).
        """
        scheme = self.intermediate_by_site()
        baseline = self.intermediate_by_site(baseline=True)
        reductions: Dict[str, float] = {}
        for site, base_volume in baseline.items():
            if base_volume <= 0:
                reductions[site] = 0.0
                continue
            reductions[site] = 100.0 * (1.0 - scheme.get(site, 0.0) / base_volume)
        return reductions

    @property
    def mean_data_reduction(self) -> float:
        return mean(self.data_reduction_by_site().values())


def run_experiment(
    system_name: str,
    workload_factory: WorkloadFactory,
    topology: WanTopology,
    config: Optional[SystemConfig] = None,
    query_limit: Optional[int] = None,
    chaos: "Optional[ChaosConfig]" = None,
) -> ExperimentResult:
    """Prepare + execute a scheme, and the vanilla baseline, on fresh
    copies of the same workload.

    With ``chaos``, the scheme under test runs on the failure-aware
    runtime (the vanilla baseline stays benign — it defines the metric's
    denominator) and the result carries abort/loss/retry accounting.
    """
    config = config or SystemConfig()
    obs = instrument.current()

    controller = make_system(system_name, topology, config, chaos=chaos)
    workload = workload_factory()
    with obs.telemetry.span(
        f"experiment:{system_name}",
        stage="experiment",
        scheme=system_name,
        workload=workload.name,
    ):
        prep = controller.prepare(workload)
        result = ExperimentResult(
            system=system_name, workload=workload.name, prep=prep
        )
        if chaos is not None:
            result.chaos_profile = chaos.faults.name or "custom"
            if prep.movement is not None:
                result.total_retries += prep.movement.retries
                result.total_lost_bytes += prep.movement.abandoned_bytes
        queries = (
            workload.queries[:query_limit] if query_limit else workload.queries
        )
        for query in queries:
            if chaos is not None:
                outcome = controller.run_query_outcome(workload, query)
                job = outcome.result
                if outcome.aborted:
                    result.aborted_queries += 1
                result.total_lost_bytes += outcome.lost_bytes
            else:
                job = controller.run_query(workload, query)
            result.runs.append(_to_run(query, job))

        baseline_workload = workload_factory()
        baseline_engine = MapReduceEngine(
            topology, partition_records=config.partition_records, seed=config.seed
        )
        baseline_queries = (
            baseline_workload.queries[:query_limit]
            if query_limit
            else baseline_workload.queries
        )
        for query in baseline_queries:
            schema = baseline_workload.schema(query.spec.dataset_id)
            job_spec = compile_query(
                query.spec, schema, num_reduce_tasks=config.num_reduce_tasks
            )
            with obs.telemetry.span(
                f"query:{query.spec.dataset_id}",
                stage="query",
                dataset=query.spec.dataset_id,
                scheme="vanilla-baseline",
            ) as span:
                job = baseline_engine.run(
                    baseline_workload.catalog.get(query.spec.dataset_id),
                    job_spec,
                    cube_sorted=False,
                )
                span.set(qct=job.qct)
            result.baseline_runs.append(_to_run(query, job))
    return result


def _to_run(query, job) -> QueryRun:
    return QueryRun(
        dataset_id=query.spec.dataset_id,
        query_text=query.spec.text or str(query.spec.group_by),
        qct=job.qct,
        intermediate_bytes_by_site={
            site: metrics.intermediate_bytes
            for site, metrics in job.per_site.items()
        },
        wan_bytes=job.total_wan_bytes,
        rdd_overhead_seconds=job.total_rdd_overhead_seconds,
    )
