"""Queries: specification, SQL parsing, UDFs, compilation.

Recurring queries are the unit of optimization in Bohr: each query type
(the set of attributes accessed) is served by a dimension cube and
compiled, with its data-reduction ratio, into an engine job spec.
"""

from repro.query.compiler import compile_query
from repro.query.pagerank import pagerank, pagerank_scores_from_records
from repro.query.parser import parse_sql
from repro.query.spec import QueryClass, QuerySpec, RecurringQuery

__all__ = [
    "QueryClass",
    "QuerySpec",
    "RecurringQuery",
    "compile_query",
    "pagerank",
    "pagerank_scores_from_records",
    "parse_sql",
]
