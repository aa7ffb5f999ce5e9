"""The OLAP cube data structure.

A cube aggregates records along a fixed tuple of dimensions (attribute
names).  Each distinct coordinate tuple owns one :class:`CellAggregate`
holding the record count, total serialized bytes and an optional numeric
measure sum.  Identical-key records collapse into one cell — exactly the
aggregation a combiner performs — so cube cells double as the "records
sorted and clustered according to their similarity" of §4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CubeError
from repro.types import Key, Record, Schema, Value, project_keys


@dataclass
class CellAggregate:
    """Aggregate of all records sharing one coordinate tuple."""

    count: int = 0
    size_bytes: int = 0
    measure_sum: float = 0.0

    def add(self, size_bytes: int, measure: float = 0.0, count: int = 1) -> None:
        self.count += count
        self.size_bytes += size_bytes
        self.measure_sum += measure

    def merge(self, other: "CellAggregate") -> None:
        self.count += other.count
        self.size_bytes += other.size_bytes
        self.measure_sum += other.measure_sum

    def copy(self) -> "CellAggregate":
        return CellAggregate(self.count, self.size_bytes, self.measure_sum)


@dataclass
class OLAPCube:
    """A multi-dimensional aggregate over one dataset.

    Parameters
    ----------
    dimensions:
        Ordered attribute names forming the coordinate space.
    measure:
        Optional numeric attribute whose values are summed per cell.
    """

    dimensions: Tuple[str, ...]
    measure: Optional[str] = None
    cells: Dict[Key, CellAggregate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise CubeError("cube needs at least one dimension")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise CubeError(f"duplicate dimensions: {self.dimensions}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Record],
        schema: Schema,
        dimensions: Sequence[str],
        measure: Optional[str] = None,
    ) -> "OLAPCube":
        """Build a cube over every record.

        Keys are projected in one pass and each cell is summed inline, in
        record order: the additions :meth:`insert` makes one at a time.
        """
        cube = cls(dimensions=tuple(dimensions), measure=measure)
        if not isinstance(records, list):
            records = list(records)
        measure_index = schema.index(measure) if measure is not None else None
        keys = project_keys(records, schema.indices(dimensions))
        cells = cube.cells
        value = 0.0
        for key, record in zip(keys, records):
            if measure_index is not None:
                value = _measure_value(measure, record.values[measure_index])
            cell = cells.get(key)
            if cell is None:
                # add() sums onto 0.0, so a -0.0 measure opens at 0.0.
                cells[key] = CellAggregate(1, record.size_bytes, 0.0 + value)
            else:
                cell.count += 1
                cell.size_bytes += record.size_bytes
                cell.measure_sum += value
        return cube

    def insert(self, record: Record, schema: Schema) -> None:
        """Insert one record (used by the incremental builder)."""
        coordinate = record.key(schema.indices(self.dimensions))
        measure_value = 0.0
        if self.measure:
            raw = record.values[schema.index(self.measure)]
            measure_value = _measure_value(self.measure, raw)
        cell = self.cells.get(coordinate)
        if cell is None:
            cell = self.cells[coordinate] = CellAggregate()
        cell.add(record.size_bytes, measure_value)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def dimension_index(self, name: str) -> int:
        try:
            return self.dimensions.index(name)
        except ValueError:
            raise CubeError(
                f"cube has no dimension {name!r}; has {list(self.dimensions)}"
            ) from None

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def total_count(self) -> int:
        return sum(cell.count for cell in self.cells.values())

    @property
    def total_bytes(self) -> int:
        return sum(cell.size_bytes for cell in self.cells.values())

    def __iter__(self) -> Iterator[Tuple[Key, CellAggregate]]:
        return iter(self.cells.items())

    def __len__(self) -> int:
        return len(self.cells)

    def coordinates(self) -> List[Key]:
        return list(self.cells.keys())

    def values_of(self, dimension: str) -> List[Value]:
        """Distinct values appearing along one dimension."""
        index = self.dimension_index(dimension)
        return sorted({coordinate[index] for coordinate in self.cells}, key=str)

    def cells_by_weight(self) -> List[Tuple[Key, CellAggregate]]:
        """Cells sorted by descending record count (ties: lexicographic).

        This is the "similarity search" of §4.1: the cube's densest cells
        are its largest clusters of mutually similar records, and the
        top-k of this ordering become the probe (§4.2).
        """
        return sorted(
            self.cells.items(), key=lambda item: (-item[1].count, str(item[0]))
        )

    def merge_cube(self, other: "OLAPCube") -> None:
        """Merge another cube with identical dimensions into this one."""
        if other.dimensions != self.dimensions:
            raise CubeError(
                f"cannot merge cube over {other.dimensions} into {self.dimensions}"
            )
        for coordinate, cell in other.cells.items():
            existing = self.cells.get(coordinate)
            if existing is None:
                self.cells[coordinate] = cell.copy()
            else:
                existing.merge(cell)

    def copy(self) -> "OLAPCube":
        return OLAPCube(
            dimensions=self.dimensions,
            measure=self.measure,
            cells={coordinate: cell.copy() for coordinate, cell in self.cells.items()},
        )


def _measure_value(measure: str, raw: Value) -> float:
    """One record's measure as a float; a cube sums only finite numbers."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise CubeError(f"measure attribute {measure!r} must be numeric, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an int beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise CubeError(f"measure attribute {measure!r} must be finite, got {raw!r}")
    return value
