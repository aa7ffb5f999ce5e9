"""Partition → executor assignment (§6).

Spark assigns RDD partitions to executors without regard to content; Bohr
instead computes pairwise partition similarity with Jaccard-modified
DIMSUM and k-means-clusters similar partitions onto the same executor, so
their identical records combine before hitting the network.  The cost
of that checking — the overhead of Table 4 — is charged to the job's
map stage on the sim clock, priced from the work the pass did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import EngineError
from repro.engine.rdd import RDDPartition, round_robin
from repro.similarity.dimsum import DimsumConfig, dimsum_similarity_matrix
from repro.similarity.kmeans import kmeans

#: Sim-clock cost of one similarity pass, one term per unit of work
#: (DESIGN.md, "RDD clustering cost").  Fitted once to Table 4's measured
#: overhead (BENCH_6 ``tab4-rdd-overhead`` wall: 3.50 / 3.78 / 4.61 /
#: 5.21 ms per job at 2 / 4 / 6 / 8 executors): the distance term and the
#: fixed part by least squares over those four points, the fixed part
#: split between pass, key and pair by timing each step of the pass.
PASS_SECONDS = 2.1e-4  # per pass: DIMSUM sampling and k-means++ setup
KEY_SECONDS = 1.8e-7  # per key of a partition's key set (projection)
PAIR_SECONDS = 8.1e-7  # per partition pair DIMSUM examined
DISTANCE_SECONDS = 7.9e-7  # per point x centroid x k-means iteration


@dataclass
class AssignmentResult:
    """Partitions grouped per executor, plus similarity-checking cost."""

    executor_partitions: List[List[RDDPartition]]
    overhead_seconds: float
    method: str

    @property
    def num_executors(self) -> int:
        return len(self.executor_partitions)

    @property
    def num_partitions(self) -> int:
        return sum(len(group) for group in self.executor_partitions)


def assign_partitions(
    partitions: Sequence[RDDPartition],
    num_executors: int,
    key_indices: Sequence[int],
    similarity_aware: bool = False,
    dimsum_config: DimsumConfig = DimsumConfig(),
    seed: int = 7,
) -> AssignmentResult:
    """Assign one machine's partitions to its executors.

    Default: round-robin (content-blind, like stock Spark).  Similarity
    aware: DIMSUM similarity matrix over partition key-sets, k-means into
    ``num_executors`` clusters, one cluster per executor.  Oversized
    clusters are rebalanced only by splitting across empty executors so
    no executor sits idle.  The pass runs (and its overhead is reported)
    only when there are more partitions than executors: otherwise every
    partition gets its own executor whatever the contents.
    """
    if num_executors < 1:
        raise EngineError("num_executors must be >= 1")
    if not partitions:
        return AssignmentResult([[] for _ in range(num_executors)], 0.0, "empty")
    if not similarity_aware or len(partitions) <= num_executors:
        # k-means with k >= n labels partition i with cluster i, which
        # is this deal: no key set or matrix is built to rediscover it.
        groups = round_robin(list(partitions), num_executors)
        return AssignmentResult(groups, 0.0, "round-robin")

    key_sets = [partition.key_set(key_indices) for partition in partitions]
    matrix, stats = dimsum_similarity_matrix(key_sets, dimsum_config)
    clustering = kmeans(matrix, num_executors, seed=seed)
    groups: List[List[RDDPartition]] = [[] for _ in range(num_executors)]
    for index, label in enumerate(clustering.labels):
        groups[label].append(partitions[index])
    _fill_idle_executors(groups)
    distances = len(partitions) * num_executors * clustering.iterations
    overhead = (
        PASS_SECONDS
        + KEY_SECONDS * sum(len(keys) for keys in key_sets)
        + PAIR_SECONDS * stats.pairs_examined
        + DISTANCE_SECONDS * distances
    )
    return AssignmentResult(groups, overhead, "similarity")


def _fill_idle_executors(groups: List[List[RDDPartition]]) -> None:
    """Move partitions from the largest groups onto idle executors.

    Similarity clustering must not leave executors empty while another
    holds several partitions — that would trade shuffle volume for a
    straggler.  Splitting the largest cluster keeps its partitions
    mutually similar (any subset of a similar cluster is similar).
    """
    while True:
        idle = [index for index, group in enumerate(groups) if not group]
        if not idle:
            return
        largest = max(range(len(groups)), key=lambda index: len(groups[index]))
        if len(groups[largest]) <= 1:
            return  # nothing left to split
        groups[idle[0]].append(groups[largest].pop())
