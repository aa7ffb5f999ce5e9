"""A tiny SQL dialect, enough for the benchmark workloads (§7).

Supported shape::

    SELECT <column | AGG(column) | udf(column, ...)> [, ...]
    FROM <dataset>
    [WHERE col = 'value' [AND ...]]
    [GROUP BY col [, ...]]

Aggregates: SUM, COUNT, AVG, MIN, MAX.  A non-aggregate function call in
the select list marks the query as a UDF (e.g. the simplified PageRank of
the AMPLab benchmark).  Plain selects with no aggregates are scans; with
GROUP BY they key on the grouped columns, otherwise on the selected ones.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import QueryError
from repro.query.spec import QueryClass, QuerySpec

_AGGREGATES = ("SUM", "COUNT", "AVG", "MIN", "MAX")

_SQL_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<dataset>[\w\-]+)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_CALL_RE = re.compile(r"^(?P<func>\w+)\s*\(\s*(?P<args>[^)]*)\s*\)$")

#: ``col = 'value'`` (possibly ``''``) or ``col = value``; a lone quote
#: or a missing value does not match.
_PREDICATE_RE = re.compile(
    r"^\s*(\w+)\s*=\s*(?:'(?P<quoted>[^']*)'|(?P<bare>[^'\s](?:[^']*[^'\s])?))\s*$"
)


def parse_sql(sql: str) -> QuerySpec:
    """Parse one SQL statement into a :class:`QuerySpec`."""
    match = _SQL_RE.match(sql)
    if not match:
        raise QueryError(f"cannot parse query: {sql!r}")
    dataset = match.group("dataset")
    select_items = _split_commas(match.group("select"), "select list")
    if not select_items:
        raise QueryError("empty select list")

    plain_columns: List[str] = []
    aggregates: List[str] = []
    udf_args: List[str] = []
    has_udf = False
    for item in select_items:
        call = _CALL_RE.match(item)
        if call:
            func = call.group("func").upper()
            args = _split_commas(call.group("args"), f"arguments of {item!r}")
            if func in _AGGREGATES:
                if func != "COUNT" and len(args) != 1:
                    raise QueryError(f"{func} takes exactly one column: {item!r}")
                aggregates.append(f"{func}({','.join(args)})")
            else:
                has_udf = True
                udf_args.extend(arg for arg in args if _is_identifier(arg))
        elif _is_identifier(item):
            plain_columns.append(item)
        elif item == "*":
            raise QueryError("SELECT * is not supported; name the columns")
        else:
            raise QueryError(f"cannot parse select item {item!r}")

    filters: List[Tuple[str, str]] = []
    where = match.group("where")
    if where:
        for clause in re.split(r"\s+AND\s+", where, flags=re.IGNORECASE):
            eq = _PREDICATE_RE.match(clause)
            if not eq:
                raise QueryError(
                    f"only equality predicates col = 'value' supported: {clause!r}"
                )
            quoted = eq.group("quoted")
            value = eq.group("bare") if quoted is None else quoted
            filters.append((eq.group(1), value))

    group = match.group("group")
    if group:
        group_by = tuple(_split_commas(group, "GROUP BY"))
        for column in group_by:
            if not _is_identifier(column):
                raise QueryError(f"bad group-by column {column!r}")
    elif has_udf:
        # UDFs follow the aggregate convention: the last argument is the
        # measure, the rest are keys (pagerank(url, score) keys on url).
        if len(udf_args) > 1:
            group_by = tuple(udf_args[:-1])
        else:
            group_by = tuple(udf_args) or tuple(plain_columns)
    else:
        group_by = tuple(plain_columns)
    if not group_by:
        raise QueryError(f"query has no key attributes: {sql!r}")

    if has_udf:
        query_class = QueryClass.UDF
    elif aggregates:
        query_class = QueryClass.AGGREGATION
    else:
        query_class = QueryClass.SCAN
    return QuerySpec(
        dataset_id=dataset,
        group_by=group_by,
        query_class=query_class,
        aggregates=tuple(aggregates),
        filters=tuple(filters),
        text=sql.strip(),
    )


def _split_commas(text: str, where: str) -> List[str]:
    """Split on commas not nested inside parentheses; an empty item (a
    stray comma) is an error, an empty ``text`` no items."""
    pieces: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            pieces.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    pieces.append("".join(current).strip())
    if pieces == [""]:
        return []
    if "" in pieces:
        raise QueryError(f"empty item in {where}: {text!r}")
    return pieces


def _is_identifier(text: str) -> bool:
    return re.match(r"^\w+$", text) is not None
