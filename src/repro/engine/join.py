"""Two-dataset equi-join stage.

§2.1: queries compile into a DAG of stages.  The star-schema queries of
TPC-DS join a fact table against dimensions; this module provides the
geo-distributed join stage on top of the engine's concurrent execution:
both sides map + combine locally, shuffle through a *shared* reduce-task
map (so equal keys meet at the same site), and the reduce stage matches
them.

The join result size follows from the actual key multiplicities:
``|A ⋈ B| = Σ_k count_A(k) · count_B(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.engine.job import JobResult, MapReduceEngine
from repro.engine.spec import MapReduceSpec
from repro.errors import EngineError
from repro.types import GeoDataset


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join between two datasets on projected key columns."""

    left_key_indices: "tuple[int, ...]"
    right_key_indices: "tuple[int, ...]"
    left_ratio: float = 1.0
    right_ratio: float = 1.0
    num_reduce_tasks: int = 100
    output_record_bytes: int = 200

    def __post_init__(self) -> None:
        if len(self.left_key_indices) != len(self.right_key_indices):
            raise EngineError(
                "join keys must have equal arity on both sides; got "
                f"{self.left_key_indices} vs {self.right_key_indices}"
            )
        if self.output_record_bytes < 1:
            raise EngineError("output_record_bytes must be >= 1")

    def left_spec(self) -> MapReduceSpec:
        return MapReduceSpec.of(
            self.left_key_indices, self.left_ratio, self.num_reduce_tasks
        )

    def right_spec(self) -> MapReduceSpec:
        return MapReduceSpec.of(
            self.right_key_indices, self.right_ratio, self.num_reduce_tasks
        )


@dataclass
class JoinResult:
    """Outcome of a geo-distributed join."""

    qct: float
    left: JobResult
    right: JobResult
    joined_records: int
    matched_keys: int
    output_bytes: int

    @property
    def total_wan_bytes(self) -> float:
        return self.left.total_wan_bytes + self.right.total_wan_bytes


def run_join(
    engine: MapReduceEngine,
    left: GeoDataset,
    right: GeoDataset,
    spec: JoinSpec,
    reduce_fractions: Optional[Mapping[str, float]] = None,
    cube_sorted: bool = False,
) -> JoinResult:
    """Execute the join; both sides share the WAN and the task map."""
    left_result, right_result = engine.run_many(
        [(left, spec.left_spec()), (right, spec.right_spec())],
        reduce_fractions=reduce_fractions,
        cube_sorted=cube_sorted,
        share_task_map=True,
        collect_keys=True,
    )
    joined = 0
    matched = 0
    for key, left_count in left_result.key_counts.items():
        right_count = right_result.key_counts.get(key)
        if right_count:
            matched += 1
            joined += left_count * right_count
    # The join itself happens at the reduce sites after both sides land.
    qct = max(left_result.qct, right_result.qct)
    return JoinResult(
        qct=qct,
        left=left_result,
        right=right_result,
        joined_records=joined,
        matched_keys=matched,
        output_bytes=joined * spec.output_record_bytes,
    )
