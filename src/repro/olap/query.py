"""Answering aggregation queries directly from OLAP cubes.

Table 6's punchline is that cube-based schemes serve queries *from the
cubes*, never touching raw data.  This module provides that serving
path: SUM / COUNT / AVG / MIN-free group-bys are answered from the
dimension cube's cells, and the answer provably equals what the engine
computes over the raw records (tested against brute force).

MIN/MAX need per-cell extrema the cube does not keep; they raise, which
tells the controller to fall back to the raw path.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import CubeError, QueryError
from repro.olap.cube import OLAPCube
from repro.olap.dimension_cube import DimensionCubeSet
from repro.query.spec import QuerySpec
from repro.types import Key

#: Aggregations a cube cell can answer exactly.
CUBE_ANSWERABLE = ("SUM", "COUNT", "AVG")


def answer_from_cube(
    cube: OLAPCube, aggregate: str
) -> Dict[Key, float]:
    """Answer one aggregate over the cube's own dimensions.

    ``aggregate`` is ``"COUNT"``, ``"SUM"`` or ``"AVG"``; SUM/AVG use the
    cube's measure attribute.
    """
    func = aggregate.upper()
    if func not in CUBE_ANSWERABLE:
        raise QueryError(
            f"aggregate {aggregate!r} cannot be answered from a cube; "
            f"answerable: {CUBE_ANSWERABLE}"
        )
    if func in ("SUM", "AVG") and cube.measure is None:
        raise CubeError(f"cube has no measure attribute for {func}")
    answers: Dict[Key, float] = {}
    for coordinate, cell in cube.cells.items():
        if func == "COUNT":
            answers[coordinate] = float(cell.count)
        elif func == "SUM":
            answers[coordinate] = cell.measure_sum
        else:  # AVG
            answers[coordinate] = (
                cell.measure_sum / cell.count if cell.count else 0.0
            )
    return answers


def parse_aggregate(expression: str) -> Tuple[str, str]:
    """Split ``"SUM(revenue)"`` into ``("SUM", "revenue")``."""
    open_paren = expression.find("(")
    if open_paren < 0 or not expression.endswith(")"):
        raise QueryError(f"malformed aggregate expression {expression!r}")
    return expression[:open_paren].upper(), expression[open_paren + 1 : -1].strip()


def answer_query(
    query: QuerySpec, cube_sets_by_site: Sequence[DimensionCubeSet]
) -> Dict[str, Dict[Key, float]]:
    """Answer a parsed aggregation query from per-site cube sets.

    Each site contributes the dimension cube for the query's type; the
    per-site cubes merge (cells with equal coordinates add up, exactly
    like the reduce stage) and every requested aggregate is evaluated.
    Returns ``{aggregate_expression: {group_key: value}}``.
    """
    if not query.aggregates:
        raise QueryError("only aggregation queries can be cube-answered")
    if query.filters:
        raise QueryError(
            "filtered queries need the raw path (cube cells pre-aggregate "
            "away the filter columns)"
        )
    merged: "OLAPCube | None" = None
    for cube_set in cube_sets_by_site:
        cube = cube_set.cube_for(list(query.group_by))
        if merged is None:
            merged = cube.copy()
        else:
            merged.merge_cube(cube)
    if merged is None:
        raise QueryError("no cube sets supplied")

    results: Dict[str, Dict[Key, float]] = {}
    for expression in query.aggregates:
        func, column = parse_aggregate(expression)
        if func in ("SUM", "AVG") and merged.measure != column:
            raise CubeError(
                f"cube measures {merged.measure!r}, query aggregates "
                f"{column!r}; build the cube set with measure={column!r}"
            )
        results[expression] = answer_from_cube(merged, func)
    return results


def brute_force_answer(
    records, schema, group_by: Sequence[str], aggregate: str
) -> Dict[Key, float]:
    """Reference implementation over raw records (for tests/validation)."""
    func, column = parse_aggregate(aggregate) if "(" in aggregate else (
        aggregate.upper(), "",
    )
    key_indices = schema.indices(list(group_by))
    measure_index = schema.index(column) if func in ("SUM", "AVG") else None
    sums: Dict[Key, float] = {}
    counts: Dict[Key, int] = {}
    for record in records:
        key = record.key(key_indices)
        counts[key] = counts.get(key, 0) + 1
        if measure_index is not None:
            sums[key] = sums.get(key, 0.0) + float(record.values[measure_index])
    if func == "COUNT":
        return {key: float(value) for key, value in counts.items()}
    if func == "SUM":
        return sums
    if func == "AVG":
        return {key: sums.get(key, 0.0) / counts[key] for key in counts}
    raise QueryError(f"unsupported aggregate {aggregate!r}")
