"""Record-level map/combine/shuffle/reduce engine over the WAN simulator.

A deliberately small Spark: datasets are split into RDD partitions,
partitions are assigned to executors on machines, map output is combined
per executor (identical keys merge), and the combined intermediate data
shuffles across sites through :class:`repro.wan.TransferScheduler` under
a reduce-task placement.  Intermediate-data reduction *emerges* from the
actual record keys — no closed-form similarity shortcut — which is what
makes similarity-aware placement measurably win or lose here, exactly as
in the paper's Figure 1.
"""

from repro.engine.assignment import AssignmentResult, assign_partitions
from repro.engine.combiner import CombinedOutput, combine
from repro.engine.dag import (
    DagResult,
    JoinStage,
    MapReduceStage,
    execute_dag,
)
from repro.engine.job import JobResult, MapReduceEngine, SiteMetrics
from repro.engine.join import JoinResult, JoinSpec, run_join
from repro.engine.rdd import RDDPartition, make_partitions
from repro.engine.shuffle import ReduceTaskMap, key_to_task
from repro.engine.spec import MapReduceSpec

__all__ = [
    "AssignmentResult",
    "CombinedOutput",
    "DagResult",
    "JobResult",
    "JoinResult",
    "JoinSpec",
    "JoinStage",
    "MapReduceEngine",
    "MapReduceSpec",
    "MapReduceStage",
    "RDDPartition",
    "ReduceTaskMap",
    "SiteMetrics",
    "assign_partitions",
    "combine",
    "execute_dag",
    "key_to_task",
    "make_partitions",
    "run_join",
]
