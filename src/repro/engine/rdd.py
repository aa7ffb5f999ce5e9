"""RDD partitions.

A site's shard is chunked into fixed-size partitions.  Whether records
are chunked in raw arrival order (Iridium) or in cube-sorted order
(Iridium-C and all Bohr variants) decides how much per-executor combining
is possible later: cube sorting clusters identical keys into the same
partition, which is the local payoff of §4.1's pre-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.errors import EngineError
from repro.types import Key, Record, project_keys, records_bytes


@dataclass
class RDDPartition:
    """One partition of records living at a site."""

    partition_id: int
    site: str
    records: List[Record] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def size_bytes(self) -> int:
        return records_bytes(self.records)

    def key_set(self, key_indices: Sequence[int]) -> Set[Key]:
        """Distinct keys in this partition (input to RDD similarity)."""
        return set(project_keys(self.records, key_indices))


def make_partitions(
    records: Sequence[Record],
    site: str,
    partition_records: int,
    key_indices: "Sequence[int] | None" = None,
    cube_sorted: bool = False,
    start_id: int = 0,
) -> List[RDDPartition]:
    """Chunk a site's records into partitions.

    With ``cube_sorted`` the records are ordered by key first, emulating
    data served from OLAP cubes whose similarity search has already
    clustered identical keys together (§4.1).  Raw order models reading
    unorganized HDFS blocks.
    """
    if partition_records < 1:
        raise EngineError("partition_records must be >= 1")
    if cube_sorted:
        if key_indices is None:
            raise EngineError("cube_sorted chunking requires key_indices")
        # Stable argsort over precomputed key texts: one projection and
        # one str() per record, same order as sorting on str(record.key).
        texts = list(map(str, project_keys(records, key_indices)))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        ordered = [records[index] for index in order]
    else:
        ordered = list(records)
    partitions: List[RDDPartition] = []
    for offset in range(0, len(ordered), partition_records):
        partitions.append(
            RDDPartition(
                partition_id=start_id + len(partitions),
                site=site,
                records=ordered[offset : offset + partition_records],
            )
        )
    return partitions


def round_robin(items: Sequence, buckets: int) -> List[List]:
    """Deal items into ``buckets`` lists, round-robin."""
    if buckets < 1:
        raise EngineError("buckets must be >= 1")
    out: List[List] = [[] for _ in range(buckets)]
    for index, item in enumerate(items):
        out[index % buckets].append(item)
    return out
