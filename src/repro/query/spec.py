"""Query specifications."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError


class QueryClass(str, enum.Enum):
    """The three workload classes of §8.1's big-data benchmark."""

    SCAN = "scan"
    AGGREGATION = "aggregation"
    UDF = "udf"


#: Map-output/input ratio per class when the spec names none: the one R^a
#: both the engine's combiner and the placement LP read.  §7 estimates it
#: from the previous run; here the engine computes map output from this
#: very number, so there is nothing to estimate.
DEFAULT_REDUCTION_RATIOS: Dict[QueryClass, float] = {
    QueryClass.SCAN: 0.25,
    QueryClass.AGGREGATION: 0.55,
    QueryClass.UDF: 0.9,
}


@dataclass(frozen=True)
class QuerySpec:
    """One analytical query over one dataset.

    ``group_by`` names the attributes whose values form the combine key —
    Bohr's query type.  ``filters`` are optional equality predicates
    applied at the map stage (they lower the effective input volume).
    """

    dataset_id: str
    group_by: Tuple[str, ...]
    query_class: QueryClass = QueryClass.AGGREGATION
    aggregates: Tuple[str, ...] = ()
    filters: Tuple[Tuple[str, str], ...] = ()
    reduction_ratio: Optional[float] = None
    text: str = ""

    def __post_init__(self) -> None:
        if not self.dataset_id:
            raise QueryError("query needs a dataset_id")
        if not self.group_by:
            raise QueryError("query needs at least one group-by attribute")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate group-by attributes: {self.group_by}")
        if self.reduction_ratio is not None and not 0.0 < self.reduction_ratio <= 1.0:
            raise QueryError(
                f"reduction_ratio must be in (0, 1], got {self.reduction_ratio}"
            )

    @property
    def query_type(self) -> Tuple[str, ...]:
        """Canonical query-type key (§4.1): sorted accessed attributes."""
        return tuple(sorted(self.group_by))

    def default_reduction_ratio(self) -> float:
        if self.reduction_ratio is not None:
            return self.reduction_ratio
        return DEFAULT_REDUCTION_RATIOS[self.query_class]


@dataclass
class RecurringQuery:
    """A query that re-executes every ``interval_seconds`` (§2.1).

    ``executions`` counts completed runs; the paper's query-type weights
    are computed from these counts across a dataset's queries.
    """

    spec: QuerySpec
    interval_seconds: float = 30.0
    executions: int = 0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise QueryError("interval_seconds must be > 0")

    def record_execution(self) -> None:
        self.executions += 1


def query_type_weights(
    queries: List[RecurringQuery],
) -> Dict[Tuple[str, ...], float]:
    """Weight of each query type = its fraction of all queries (§4.2).

    Queries that have executed more count proportionally more; brand-new
    queries count once.
    """
    if not queries:
        raise QueryError("need at least one query to compute weights")
    counts: Dict[Tuple[str, ...], float] = {}
    for query in queries:
        weight = max(query.executions, 1)
        key = query.spec.query_type
        counts[key] = counts.get(key, 0.0) + weight
    total = sum(counts.values())
    return {key: value / total for key, value in counts.items()}
