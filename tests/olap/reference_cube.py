"""The cube build ``repro.olap`` ran before it projected keys in a batch.

Kept as the oracle for :meth:`OLAPCube.from_records` and
:func:`~repro.olap.operations.project`: every record goes through
``Record.key`` and a per-record insert that creates an empty
:class:`CellAggregate` and ``add``-s to it, and every projected cell
through a generator-built tuple and ``copy``/``merge``.  The shipped code
projects every key in one pass and aggregates inline; the parity
property holds cell order and every cell's count, bytes and measure sum
to this code.  Non-finite measures are summed here, as they were.
"""

from typing import Iterable, Optional, Sequence

from repro.errors import CubeError
from repro.olap.cube import CellAggregate, OLAPCube
from repro.types import Key, Record, Schema


def reference_from_records(
    records: Iterable[Record],
    schema: Schema,
    dimensions: Sequence[str],
    measure: Optional[str] = None,
) -> OLAPCube:
    """Per-record reference implementation of :meth:`OLAPCube.from_records`."""
    cube = OLAPCube(dimensions=tuple(dimensions), measure=measure)
    indices = schema.indices(dimensions)
    measure_index = schema.index(measure) if measure is not None else None
    for record in records:
        _insert_at(cube, record.key(indices), record, measure_index)
    return cube


def _insert_at(
    cube: OLAPCube, coordinate: Key, record: Record, measure_index: Optional[int]
) -> None:
    measure_value = 0.0
    if measure_index is not None:
        raw = record.values[measure_index]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise CubeError(
                f"measure attribute {cube.measure!r} must be numeric, "
                f"got {raw!r}"
            )
        measure_value = float(raw)
    cell = cube.cells.get(coordinate)
    if cell is None:
        cell = cube.cells[coordinate] = CellAggregate()
    cell.add(record.size_bytes, measure_value)


def reference_project(cube: OLAPCube, dimensions: Sequence[str]) -> OLAPCube:
    """Cell-by-cell reference implementation of :func:`project`."""
    if not dimensions:
        raise CubeError("projection needs at least one dimension")
    if len(set(dimensions)) != len(dimensions):
        raise CubeError(f"duplicate dimensions in projection: {dimensions}")
    indices = [cube.dimension_index(name) for name in dimensions]
    result = OLAPCube(dimensions=tuple(dimensions), measure=cube.measure)
    for coordinate, cell in cube.cells.items():
        projected: Key = tuple(coordinate[index] for index in indices)
        existing = result.cells.get(projected)
        if existing is None:
            result.cells[projected] = cell.copy()
        else:
            existing.merge(cell)
    return result
