"""Cross-site similarity checking with probes (§4.2) and local similarity.

Upon receiving a probe from the bottleneck site, a site looks each probe
record up in its own dimension cube for that query type.  The weighted
fraction of matched probe records estimates how much of the bottleneck
site's (clustered) data would combine away if moved here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.errors import SimilarityError
from repro.obs import instrument
from repro.olap.cube import OLAPCube
from repro.olap.dimension_cube import DimensionCubeSet, QueryTypeKey
from repro.similarity.probes import Probe


@dataclass(frozen=True)
class SiteSimilarity:
    """Estimated similarity between an origin site's data and a target's."""

    dataset_id: str
    origin_site: str
    target_site: str
    similarity: float
    per_query_type: Mapping[QueryTypeKey, float]
    elapsed_seconds: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity <= 1.0:
            raise SimilarityError(
                f"similarity must be within [0, 1], got {self.similarity}"
            )


@dataclass
class SimilarityChecker:
    """Evaluates probes against a site's cubes; accumulates timing."""

    total_checks: int = 0
    total_seconds: float = 0.0
    _history: List[SiteSimilarity] = field(default_factory=list)

    def check(
        self, probe: Probe, target_site: str, target_cubes: DimensionCubeSet
    ) -> SiteSimilarity:
        """Estimate similarity of the probe's origin data to a target site.

        Returns the cluster-size-weighted match fraction: a probe record
        matches when its key exists as a cell of the target's dimension
        cube for the same query type.
        """
        telemetry = instrument.current().telemetry
        with telemetry.span(
            f"similarity-check {probe.origin_site}->{target_site}",
            stage="probe",
            dataset=probe.dataset_id,
            origin=probe.origin_site,
            target=target_site,
        ) as span:
            # Wall-clock on purpose: offline probe-checking cost, Table 3.
            started = time.perf_counter()  # lint: allow[R001]
            matched_weight: Dict[QueryTypeKey, float] = {}
            total_weight: Dict[QueryTypeKey, float] = {}
            for record in probe.records:
                cube = target_cubes.cube_for(list(record.query_type))
                total_weight[record.query_type] = (
                    total_weight.get(record.query_type, 0.0) + record.weight
                )
                if record.key in cube.cells:
                    matched_weight[record.query_type] = (
                        matched_weight.get(record.query_type, 0.0) + record.weight
                    )
            per_type = {
                type_key: matched_weight.get(type_key, 0.0) / weight
                for type_key, weight in total_weight.items()
            }
            overall_total = sum(total_weight.values())
            overall_matched = sum(matched_weight.values())
            similarity = overall_matched / overall_total if overall_total else 0.0
            elapsed = time.perf_counter() - started  # lint: allow[R001]
            result = SiteSimilarity(
                dataset_id=probe.dataset_id,
                origin_site=probe.origin_site,
                target_site=target_site,
                similarity=similarity,
                per_query_type=per_type,
                elapsed_seconds=elapsed,
            )
            self.total_checks += 1
            self.total_seconds += elapsed
            self._history.append(result)
            span.set(similarity=similarity)
        return result

    def check_against_sites(
        self, probe: Probe, cubes_by_site: Mapping[str, DimensionCubeSet]
    ) -> Dict[str, SiteSimilarity]:
        """Check one probe against every other site's cubes."""
        return {
            site: self.check(probe, site, cube_set)
            for site, cube_set in cubes_by_site.items()
            if site != probe.origin_site
        }

    @property
    def history(self) -> List[SiteSimilarity]:
        return list(self._history)

    @property
    def mean_check_seconds(self) -> float:
        if not self.total_checks:
            return 0.0
        return self.total_seconds / self.total_checks


def intra_site_similarity(cube: OLAPCube) -> float:
    """:math:`S_i^a` from a site's dimension cube: 1 − cells/records.

    Exactly the fraction of the site's records a combiner merges away for
    queries of this cube's type.  Empty cubes combine nothing (0.0).
    """
    total = cube.total_count
    if total == 0:
        return 0.0
    return 1.0 - cube.num_cells / total
