"""Classic OLAP operations (§2.2): slice, dice, roll-up, drill-down, pivot.

All operations are pure — they return new cubes and never mutate their
input.  ``project`` (aggregate away dimensions) is the workhorse behind
dimension cubes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import CubeError
from repro.olap.cube import CellAggregate, OLAPCube
from repro.types import Key, Value


def slice_cube(cube: OLAPCube, dimension: str, value: Value) -> OLAPCube:
    """Fix one dimension to a single value, producing a cube without it.

    E.g. slicing the time dimension of Figure 2 at 2014 yields the sales
    of all products in all regions in 2014.
    """
    index = cube.dimension_index(dimension)
    remaining = tuple(name for name in cube.dimensions if name != dimension)
    if not remaining:
        raise CubeError("slicing the last dimension would leave an empty cube")
    result = OLAPCube(dimensions=remaining, measure=cube.measure)
    for coordinate, cell in cube.cells.items():
        if coordinate[index] != value:
            continue
        reduced = coordinate[:index] + coordinate[index + 1 :]
        _accumulate(result, reduced, cell)
    return result


def dice(cube: OLAPCube, selections: Mapping[str, Iterable[Value]]) -> OLAPCube:
    """Keep only cells whose values fall inside per-dimension sets.

    Dimensionality is preserved; e.g. dicing Figure 2 on
    ``{"product": {"A"}, "time": {"2014"}}`` gives product A's 2014 sales
    across all regions.
    """
    index_of = {name: cube.dimension_index(name) for name in selections}
    value_sets: dict = {name: set(values) for name, values in selections.items()}
    result = OLAPCube(dimensions=cube.dimensions, measure=cube.measure)
    for coordinate, cell in cube.cells.items():
        if all(
            coordinate[index_of[name]] in allowed
            for name, allowed in value_sets.items()
        ):
            result.cells[coordinate] = cell.copy()
    return result


def roll_up(
    cube: OLAPCube, dimension: str, mapping: Callable[[Value], Value]
) -> OLAPCube:
    """Coarsen one dimension by mapping its values upward in a hierarchy."""
    index = cube.dimension_index(dimension)
    result = OLAPCube(dimensions=cube.dimensions, measure=cube.measure)
    for coordinate, cell in cube.cells.items():
        coarse = (
            coordinate[:index] + (mapping(coordinate[index]),) + coordinate[index + 1 :]
        )
        _accumulate(result, coarse, cell)
    return result


def drill_down(base_cube: OLAPCube, dimensions: Sequence[str]) -> OLAPCube:
    """Re-derive a finer view from a base cube holding more dimensions.

    Aggregation is lossy, so drilling down requires the finer *base* cube;
    this mirrors real OLAP engines which answer drill-down from the base
    cuboid.  ``dimensions`` must be a superset of nothing in particular —
    any subset of the base cube's dimensions is valid; the point is that
    the caller holds a coarse cube and goes back to the base to get detail.
    """
    return project(base_cube, dimensions)


def project(cube: OLAPCube, dimensions: Sequence[str]) -> OLAPCube:
    """Aggregate away all dimensions not listed, preserving order given.

    This is the derivation of a *dimension cube* (§2.2): e.g. projecting
    Figure 2's cube onto (product, time) aggregates along region.
    """
    if not dimensions:
        raise CubeError("projection needs at least one dimension")
    if len(set(dimensions)) != len(dimensions):
        raise CubeError(f"duplicate dimensions in projection: {dimensions}")
    indices = [cube.dimension_index(name) for name in dimensions]
    result = OLAPCube(dimensions=tuple(dimensions), measure=cube.measure)
    # One batch of projected keys (itemgetter returns a bare value for a
    # single index), then each cell copied or merged inline.
    if len(indices) == 1:
        (index,) = indices
        projected = [(coordinate[index],) for coordinate in cube.cells]
    else:
        getter = itemgetter(*indices)
        projected = [getter(coordinate) for coordinate in cube.cells]
    cells = result.cells
    for key, cell in zip(projected, cube.cells.values()):
        existing = cells.get(key)
        if existing is None:
            cells[key] = CellAggregate(cell.count, cell.size_bytes, cell.measure_sum)
        else:
            existing.count += cell.count
            existing.size_bytes += cell.size_bytes
            existing.measure_sum += cell.measure_sum
    return result


def pivot(cube: OLAPCube, dimensions: Sequence[str]) -> OLAPCube:
    """Reorder dimensions (rotate the cube) without changing content."""
    if set(dimensions) != set(cube.dimensions) or len(dimensions) != len(
        cube.dimensions
    ):
        raise CubeError(
            f"pivot must permute exactly {list(cube.dimensions)}, got {list(dimensions)}"
        )
    return project(cube, dimensions)


def _accumulate(cube: OLAPCube, coordinate: Key, cell: CellAggregate) -> None:
    existing = cube.cells.get(coordinate)
    if existing is None:
        cube.cells[coordinate] = cell.copy()
    else:
        existing.merge(cell)
