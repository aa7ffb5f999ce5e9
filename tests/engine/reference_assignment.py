"""The similarity-aware assignment ``assign_partitions`` ran until PR 18.

Kept as the oracle for the forced-assignment return that now precedes
it: every call with two or more partitions builds the key sets, the
DIMSUM matrix and a k-means clustering, however few partitions there
are — with no more partitions than executors k-means hands each its own
cluster and the result is the round-robin deal, which is what the
shipped code now returns without the pass.  Key sets go through
``Record.key`` per record, as they did.
"""

from typing import List, Sequence

from repro.engine.rdd import RDDPartition, round_robin
from repro.similarity.dimsum import DimsumConfig, dimsum_similarity_matrix
from repro.similarity.kmeans import kmeans


def reference_assign(
    partitions: Sequence[RDDPartition],
    num_executors: int,
    key_indices: Sequence[int],
    dimsum_config: DimsumConfig = DimsumConfig(),
    seed: int = 7,
) -> List[List[RDDPartition]]:
    """Partitions per executor, similarity-aware, with no shortcut."""
    if not partitions:
        return [[] for _ in range(num_executors)]
    if len(partitions) <= 1:
        return round_robin(list(partitions), num_executors)
    key_sets = [
        {record.key(key_indices) for record in partition.records}
        for partition in partitions
    ]
    matrix, _ = dimsum_similarity_matrix(key_sets, dimsum_config)
    clustering = kmeans(matrix, min(num_executors, len(partitions)), seed=seed)
    groups: List[List[RDDPartition]] = [[] for _ in range(num_executors)]
    for index, label in enumerate(clustering.labels):
        groups[label].append(partitions[index])
    while True:
        idle = [index for index, group in enumerate(groups) if not group]
        if not idle:
            return groups
        largest = max(range(len(groups)), key=lambda index: len(groups[index]))
        if len(groups[largest]) <= 1:
            return groups  # nothing left to split
        groups[idle[0]].append(groups[largest].pop())
