"""Compile a :class:`QuerySpec` into an engine :class:`MapReduceSpec`."""

from __future__ import annotations

from repro.engine.spec import MapReduceSpec
from repro.errors import QueryError
from repro.query.spec import QuerySpec
from repro.types import Schema


def compile_query(
    spec: QuerySpec,
    schema: Schema,
    *,
    num_reduce_tasks: int = 100,
) -> MapReduceSpec:
    """Resolve attribute names to positions; the reduction ratio is the
    spec's own (:meth:`QuerySpec.default_reduction_ratio`).

    Raises :class:`QueryError` when the query references attributes the
    dataset schema does not have (including filter columns).
    """
    filters = []
    for column, value in spec.filters:
        if column not in schema:
            raise QueryError(
                f"filter column {column!r} not in schema {schema.names}"
            )
        filters.append((schema.index(column), value))
    missing = [name for name in spec.group_by if name not in schema]
    if missing:
        raise QueryError(
            f"query group-by attributes {missing} not in schema {schema.names}"
        )
    return MapReduceSpec(
        key_indices=tuple(schema.index(name) for name in spec.group_by),
        reduction_ratio=spec.default_reduction_ratio(),
        num_reduce_tasks=num_reduce_tasks,
        filters=tuple(filters),
    )
