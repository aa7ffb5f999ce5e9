"""Multi-stage query DAGs (§2.1).

"When a query arrives, a logically centralized controller compiles the
query into a directed acyclic graph (DAG) of processing stages."  This
module executes such DAGs on the engine: each stage is a map-reduce or a
join, a stage's output is materialized as a new geo-distributed dataset
living where its reduce tasks ran, and downstream stages consume it.

A stage starts when every referenced input's producing stage finished,
so the DAG's completion time is the critical-path sum of stage QCTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.engine.job import JobResult, MapReduceEngine
from repro.engine.join import JoinResult, JoinSpec, run_join
from repro.engine.shuffle import ReduceTaskMap
from repro.engine.spec import MapReduceSpec
from repro.errors import EngineError
from repro.obs import instrument
from repro.types import GeoDataset, Record, Schema


@dataclass(frozen=True)
class MapReduceStage:
    """One map/combine/shuffle/reduce stage."""

    name: str
    input_ref: str
    spec: MapReduceSpec
    key_names: "tuple[str, ...]"

    def __post_init__(self) -> None:
        if len(self.key_names) != len(self.spec.key_indices):
            raise EngineError(
                f"stage {self.name!r}: key_names arity "
                f"{len(self.key_names)} != key_indices arity "
                f"{len(self.spec.key_indices)}"
            )


@dataclass(frozen=True)
class JoinStage:
    """One equi-join stage between two inputs."""

    name: str
    left_ref: str
    right_ref: str
    spec: JoinSpec
    key_names: "tuple[str, ...]"

    def __post_init__(self) -> None:
        if len(self.key_names) != len(self.spec.left_key_indices):
            raise EngineError(
                f"stage {self.name!r}: key_names arity must match the join keys"
            )


Stage = Union[MapReduceStage, JoinStage]


@dataclass
class StageExecution:
    """One executed stage: its engine result and materialized output."""

    stage: Stage
    result: "JobResult | JoinResult"
    output: GeoDataset
    start_time: float
    finish_time: float


@dataclass
class DagResult:
    """Full DAG execution."""

    executions: List[StageExecution] = field(default_factory=list)

    @property
    def total_qct(self) -> float:
        if not self.executions:
            return 0.0
        return max(execution.finish_time for execution in self.executions)

    def output_of(self, stage_name: str) -> GeoDataset:
        for execution in self.executions:
            if execution.stage.name == stage_name:
                return execution.output
        raise EngineError(f"no executed stage named {stage_name!r}")

    def result_of(self, stage_name: str):
        for execution in self.executions:
            if execution.stage.name == stage_name:
                return execution.result
        raise EngineError(f"no executed stage named {stage_name!r}")


def _output_schema(key_names: Sequence[str]) -> Schema:
    return Schema.of(*key_names, "rows", kinds={"rows": "numeric"})


def _materialize_map_reduce(
    stage: MapReduceStage,
    result: JobResult,
    fractions: Mapping[str, float],
) -> GeoDataset:
    """One output record per distinct key, at its reduce task's site."""
    task_map = ReduceTaskMap.from_fractions(fractions, stage.spec.num_reduce_tasks)
    schema = _output_schema(stage.key_names)
    output = GeoDataset(f"{stage.name}.out", schema)
    for key, count in result.key_counts.items():
        size = max(1, int(result.key_bytes.get(key, 1)))
        record = Record(values=key + (count,), size_bytes=size)
        output.add_records(task_map.site_of_key(key), [record])
    return output


def _materialize_join(
    stage: JoinStage,
    result: JoinResult,
    fractions: Mapping[str, float],
) -> GeoDataset:
    """One output record per matched key, sized by its joined rows."""
    task_map = ReduceTaskMap.from_fractions(fractions, stage.spec.num_reduce_tasks)
    schema = _output_schema(stage.key_names)
    output = GeoDataset(f"{stage.name}.out", schema)
    for key, left_count in result.left.key_counts.items():
        right_count = result.right.key_counts.get(key)
        if not right_count:
            continue
        rows = left_count * right_count
        record = Record(
            values=key + (rows,),
            size_bytes=max(1, rows * stage.spec.output_record_bytes),
        )
        output.add_records(task_map.site_of_key(key), [record])
    return output


def execute_dag(
    engine: MapReduceEngine,
    base_datasets: Mapping[str, GeoDataset],
    stages: Sequence[Stage],
    reduce_fractions: Optional[Mapping[str, float]] = None,
    cube_sorted: bool = False,
) -> DagResult:
    """Execute the stages in order; later stages may reference earlier
    stages' outputs by stage name.

    ``stages`` must already be topologically ordered (a stage may only
    reference base datasets or stages appearing before it); violations
    raise :class:`EngineError`.
    """
    fractions = engine._resolve_fractions(reduce_fractions)
    available: Dict[str, GeoDataset] = dict(base_datasets)
    finish_times: Dict[str, float] = {name: 0.0 for name in base_datasets}
    dag = DagResult()
    seen_names = set(base_datasets)

    for stage in stages:
        if stage.name in seen_names:
            raise EngineError(f"duplicate stage/dataset name {stage.name!r}")
        seen_names.add(stage.name)
        refs = (
            [stage.input_ref]
            if isinstance(stage, MapReduceStage)
            else [stage.left_ref, stage.right_ref]
        )
        for ref in refs:
            if ref not in available:
                raise EngineError(
                    f"stage {stage.name!r} references unknown input {ref!r} "
                    "(stages must be topologically ordered)"
                )
        start = max(finish_times[ref] for ref in refs)

        telemetry = instrument.current().telemetry
        with telemetry.span(f"stage:{stage.name}", stage="dag-stage") as span:
            if isinstance(stage, MapReduceStage):
                [result] = engine.run_many(
                    [(available[stage.input_ref], stage.spec)],
                    reduce_fractions=fractions,
                    cube_sorted=cube_sorted,
                    collect_keys=True,
                )
                output = _materialize_map_reduce(stage, result, fractions)
            else:
                result = run_join(
                    engine,
                    available[stage.left_ref],
                    available[stage.right_ref],
                    stage.spec,
                    reduce_fractions=fractions,
                    cube_sorted=cube_sorted,
                )
                output = _materialize_join(stage, result, fractions)
            finish = start + result.qct
            span.set(
                sim_start=start,
                sim_end=finish,
                output_records=output.total_records,
            )
        available[stage.name] = output
        finish_times[stage.name] = finish
        dag.executions.append(
            StageExecution(
                stage=stage,
                result=result,
                output=output,
                start_time=start,
                finish_time=finish,
            )
        )
    return dag
