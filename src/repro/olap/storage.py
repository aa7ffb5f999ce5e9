"""Storage-overhead model (Table 6, §8.5).

Bohr trades storage for latency: raw data is kept (HDFS replication is
untouched, §7), OLAP cubes add roughly 40–45% of the raw size, and the
similarity metadata (sorted cluster index + probes) adds ~2%.  Queries
themselves only need the cubes and similarity metadata, so "storage needed
by queries" is far below what Iridium needs (the raw data).

The model is structural, not hard-coded: cube size follows from the
number of cells and the per-cell encoding; metadata size from the cluster
index.  With workload-realistic key cardinality the ratios land where
Table 6 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.olap.cube import OLAPCube

#: Fixed per-cell overhead: aggregate struct, hash bucket, count/sum fields.
CELL_HEADER_BYTES = 48
#: Encoded bytes per dimension value stored in a cell coordinate.
BYTES_PER_DIMENSION_VALUE = 24
#: Per-cell entry in the similarity cluster index (cell id + count + rank).
CLUSTER_INDEX_ENTRY_BYTES = 20
#: Serialized size of one probe record (coordinates + weight).
PROBE_RECORD_BYTES = 256
#: Query-processing working space as a fraction of the data it reads
#: ("storage needed by queries is higher than storage for OLAP cubes ...
#: due to the overhead of performing OLAP operations").
QUERY_WORKSPACE_FRACTION = 0.12


def cube_bytes(cube: OLAPCube) -> int:
    """Serialized size of one cube."""
    per_cell = CELL_HEADER_BYTES + BYTES_PER_DIMENSION_VALUE * len(cube.dimensions)
    return cube.num_cells * per_cell


def similarity_metadata_bytes(cubes: Iterable[OLAPCube], probe_records: int) -> int:
    """Cluster index over every cube plus stored probe records."""
    index_bytes = sum(cube.num_cells * CLUSTER_INDEX_ENTRY_BYTES for cube in cubes)
    return index_bytes + probe_records * PROBE_RECORD_BYTES


@dataclass(frozen=True)
class StorageReport:
    """Per-node storage breakdown for one scheme (one row of Table 6)."""

    scheme: str
    raw_bytes: int
    cube_bytes: int
    similarity_bytes: int

    @property
    def per_node_total(self) -> int:
        """Everything the node stores."""
        return self.raw_bytes + self.cube_bytes + self.similarity_bytes

    @property
    def needed_by_queries(self) -> int:
        """Storage actually read while processing queries.

        Iridium reads raw data; cube-based schemes read cubes (+ similarity
        metadata for Bohr), each inflated by OLAP working space.
        """
        if self.cube_bytes <= 0:
            base = self.raw_bytes
        else:
            base = self.cube_bytes + self.similarity_bytes
        return int(base * (1.0 + QUERY_WORKSPACE_FRACTION))


class StorageModel:
    """Builds :class:`StorageReport` rows for the schemes of Table 6."""

    def __init__(self, raw_bytes_per_node: int) -> None:
        self.raw_bytes_per_node = raw_bytes_per_node

    def iridium(self) -> StorageReport:
        """Raw data only (plus the small scratch Iridium keeps)."""
        return StorageReport(
            scheme="iridium",
            raw_bytes=self.raw_bytes_per_node,
            cube_bytes=0,
            similarity_bytes=0,
        )

    def iridium_c(self, cubes: Iterable[OLAPCube]) -> StorageReport:
        """Raw data + OLAP cubes, no similarity metadata."""
        return StorageReport(
            scheme="iridium-c",
            raw_bytes=self.raw_bytes_per_node,
            cube_bytes=sum(cube_bytes(cube) for cube in cubes),
            similarity_bytes=0,
        )

    def bohr(
        self, cubes: Iterable[OLAPCube], probe_records: int
    ) -> StorageReport:
        """Raw data + cubes + similarity metadata."""
        cube_list = list(cubes)
        return StorageReport(
            scheme="bohr",
            raw_bytes=self.raw_bytes_per_node,
            cube_bytes=sum(cube_bytes(cube) for cube in cube_list),
            similarity_bytes=similarity_metadata_bytes(cube_list, probe_records),
        )
