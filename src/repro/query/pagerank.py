"""Simplified PageRank (the AMPLab benchmark's UDF, §8.1).

The big-data workload's UDF query "calculates a simplified version of
PageRank".  We provide the real iterative algorithm over an edge list so
the UDF example application computes genuine ranks end-to-end.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import QueryError
from repro.types import Record, Schema


def pagerank(
    edges: Iterable[Tuple[str, str]],
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 1e-9,
) -> Dict[str, float]:
    """Iterative PageRank over a directed edge list.

    Dangling nodes redistribute uniformly.  Returns rank per node,
    summing to ~1.0.
    """
    if not 0.0 < damping < 1.0:
        raise QueryError("damping must be in (0, 1)")
    if iterations < 1:
        raise QueryError("iterations must be >= 1")
    out_links: Dict[str, List[str]] = {}
    nodes = set()
    for src, dst in edges:
        out_links.setdefault(src, []).append(dst)
        nodes.add(src)
        nodes.add(dst)
    if not nodes:
        return {}
    count = len(nodes)
    rank = {node: 1.0 / count for node in nodes}
    for _ in range(iterations):
        dangling_mass = sum(
            rank[node] for node in nodes if not out_links.get(node)
        )
        next_rank = {
            node: (1.0 - damping) / count + damping * dangling_mass / count
            for node in nodes
        }
        for src, targets in out_links.items():
            share = damping * rank[src] / len(targets)
            for dst in targets:
                next_rank[dst] += share
        delta = max(abs(next_rank[node] - rank[node]) for node in nodes)
        rank = next_rank
        if delta < tolerance:
            break
    return rank


def pagerank_scores_from_records(
    records: Sequence[Record],
    schema: Schema,
    url_attribute: str = "url",
    score_attribute: str = "score",
) -> Dict[str, float]:
    """The paper's toy UDF (Figure 1): sum scores per URL key.

    The motivating example's logs "record the score of a website using
    its URL as the key"; the query aggregates scores per URL — exactly
    what the map/combine/reduce pipeline does for UDF queries.
    """
    url_index = schema.index(url_attribute)
    score_index = schema.index(score_attribute)
    totals: Dict[str, float] = {}
    for record in records:
        url = str(record.values[url_index])
        raw = record.values[score_index]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise QueryError(f"score attribute must be numeric, got {raw!r}")
        totals[url] = totals.get(url, 0.0) + float(raw)
    return totals
