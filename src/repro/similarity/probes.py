"""Probe construction (§4.2).

A probe is a small set of representative records sent from the bottleneck
site so other sites can estimate similarity without bulk data exchange.
For each query type the probe carries the top cells (largest record
clusters) of the corresponding dimension cube.  The total budget of k
records is split across query types proportionally to each type's weight
— its fraction of the dataset's queries — and across datasets mainly by
dataset size (Table 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SimilarityError
from repro.obs import instrument
from repro.olap.dimension_cube import DimensionCubeSet, QueryTypeKey, query_type_key
from repro.olap.storage import PROBE_RECORD_BYTES
from repro.types import Key


@dataclass(frozen=True)
class ProbeRecord:
    """One representative record: a cube cell coordinate plus its weight."""

    key: Key
    weight: int
    query_type: QueryTypeKey

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise SimilarityError("probe record weight must be >= 1")


@dataclass
class Probe:
    """A probe for one dataset, sent from the bottleneck site."""

    dataset_id: str
    origin_site: str
    records: List[ProbeRecord] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return len(self.records) * PROBE_RECORD_BYTES

    def records_for(self, attributes: Sequence[str]) -> List[ProbeRecord]:
        wanted = query_type_key(attributes)
        return [record for record in self.records if record.query_type == wanted]

    @property
    def query_types(self) -> List[QueryTypeKey]:
        seen: List[QueryTypeKey] = []
        for record in self.records:
            if record.query_type not in seen:
                seen.append(record.query_type)
        return seen


def largest_remainder_allocation(
    weights: Mapping[str, float], total: int
) -> Dict[str, int]:
    """Split ``total`` units across keys proportionally to ``weights``.

    Uses the largest-remainder method so the shares sum exactly to
    ``total``.  Zero-weight keys get nothing; ties break by key order.
    Every weight must be finite and >= 0, and their sum times ``total``
    finite: a NaN, negative or overflowing share has no floor to take.
    """
    if total < 0:
        raise SimilarityError("total must be >= 0")
    for key, weight in weights.items():
        # A chained range rejects NaN (every comparison is False).
        if not 0 <= weight < math.inf:
            raise SimilarityError(
                f"weight of {key!r} must be finite and >= 0, got {weight}"
            )
    weight_sum = sum(weights.values())
    if weight_sum <= 0:
        raise SimilarityError("weights must sum to a positive value")
    if not total * weight_sum < math.inf:
        raise SimilarityError(
            f"weights total {weight_sum} is not finite over {total} units"
        )
    exact = {key: total * weight / weight_sum for key, weight in weights.items()}
    floors = {key: int(value) for key, value in exact.items()}
    shortfall = total - sum(floors.values())
    remainders = sorted(
        weights.keys(), key=lambda key: (-(exact[key] - floors[key]), str(key))
    )
    for key in remainders[:shortfall]:
        floors[key] += 1
    return floors


class ProbeBuilder:
    """Builds probes from a site's dimension cubes."""

    def __init__(self, k: int = 30) -> None:
        if k < 1:
            raise SimilarityError("probe size k must be >= 1")
        self.k = k

    def build(
        self,
        dataset_id: str,
        origin_site: str,
        cube_set: DimensionCubeSet,
        query_type_weights: Mapping[Tuple[str, ...], float],
        k: "int | None" = None,
    ) -> Probe:
        """Build the probe for one dataset.

        ``query_type_weights`` maps attribute tuples to the fraction of
        queries of that type (§4.2's weights); they need not be
        normalized.  Each type contributes its weighted share of the k
        records, taken from the top of its dimension cube's cluster
        ordering.
        """
        budget = self.k if k is None else k
        if budget < 1:
            raise SimilarityError("probe budget must be >= 1")
        if not query_type_weights:
            raise SimilarityError("at least one query type is required")
        canonical = {
            query_type_key(attributes): weight
            for attributes, weight in query_type_weights.items()
        }
        allocation = largest_remainder_allocation(
            {"|".join(key): weight for key, weight in canonical.items()}, budget
        )
        probe = Probe(dataset_id=dataset_id, origin_site=origin_site)
        telemetry = instrument.current().telemetry
        with telemetry.span(
            f"probe-build {dataset_id}",
            stage="probe",
            dataset=dataset_id,
            origin=origin_site,
        ) as span:
            for type_key in canonical:
                share = allocation["|".join(type_key)]
                if share == 0:
                    continue
                cube = cube_set.cube_for(list(type_key))
                for coordinate, cell in cube.cells_by_weight()[:share]:
                    probe.records.append(
                        ProbeRecord(
                            key=coordinate, weight=cell.count, query_type=type_key
                        )
                    )
            span.set(records=len(probe.records), bytes=probe.size_bytes)
        if not probe.records:
            raise SimilarityError(
                f"probe for dataset {dataset_id!r} is empty; are the cubes empty?"
            )
        return probe

    def allocate_across_datasets(
        self, dataset_bytes: Mapping[str, int], total_k: "int | None" = None
    ) -> Dict[str, int]:
        """Split a global probe budget across datasets by size (Table 2).

        "We determine the number of records contained in the probe for
        each dataset mainly based on the dataset size."  Every non-empty
        dataset receives at least one record when the budget allows.
        """
        budget = self.k if total_k is None else total_k
        if not dataset_bytes:
            return {}
        allocation = largest_remainder_allocation(
            {key: float(value) for key, value in dataset_bytes.items()}, budget
        )
        # Guarantee one record per non-empty dataset where possible.
        if budget >= len(dataset_bytes):
            starving = [
                key
                for key, size in dataset_bytes.items()
                if size > 0 and allocation[key] == 0
            ]
            donors = sorted(allocation, key=lambda key: -allocation[key])
            for key in starving:
                for donor in donors:
                    if allocation[donor] > 1:
                        allocation[donor] -= 1
                        allocation[key] += 1
                        break
        return allocation
