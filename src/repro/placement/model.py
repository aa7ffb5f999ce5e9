"""The placement problem: Table 1's notation as a validated value object."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.errors import PlacementError
from repro.wan.topology import WanTopology


@dataclass
class PlacementProblem:
    """Inputs to data/task placement for a batch of datasets.

    Attributes (matching Table 1)
    -----------------------------
    topology:
        Sites with uplink :math:`U_i` and downlink :math:`D_i`.
    input_bytes:
        :math:`I_i^a` — dataset → site → original input bytes.
    reduction_ratio:
        :math:`R^a` — dataset → intermediate/input ratio after the map.
    similarity:
        :math:`S_i^a` — dataset → site → local similarity (the fraction
        of intermediate data the combiner removes).
    lag_seconds:
        :math:`T` — the window between recurring query arrivals in which
        data movement must finish.
    mobility:
        Optional per-dataset cap on the *fraction* of a site's data that
        may move along each (src, dst) pair: Bohr only moves data that
        the destination's combiner can absorb, and the probe-measured
        cross-site similarity :math:`S^a_{i,j}` bounds how much of site
        i's data that is.  Missing pairs default to fully mobile (1.0) —
        the similarity-agnostic behaviour of prior work.
    """

    topology: WanTopology
    input_bytes: Dict[str, Dict[str, float]]
    reduction_ratio: Dict[str, float]
    similarity: Dict[str, Dict[str, float]]
    lag_seconds: float
    mobility: Dict[str, Dict[Tuple[str, str], float]] = field(default_factory=dict)
    #: :math:`S^a_{i,j}` of Table 1 — similarity between sites i and j for
    #: dataset a, i.e. the fraction of i's data that j's combiner absorbs
    #: when it moves there.  Missing pairs default to 0.0 (inflow fully
    #: adds to the destination's shuffle volume).
    cross_similarity: Dict[str, Dict[Tuple[str, str], float]] = field(
        default_factory=dict
    )
    #: Optional per-site aggregate reduce-compute rate (bytes/second).
    #: When present, the task LP also bounds each site's reduce-processing
    #: time — the compute-constraint extension §5 names as future work
    #: (cf. Tetrium [22]).  Empty = compute is abundant (the paper's
    #: default assumption).
    compute_bps: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.topology.validate()
        # ``not (value > 0)`` rather than ``value <= 0``: nan compares false.
        if not (math.isfinite(self.lag_seconds) and self.lag_seconds > 0):
            raise PlacementError(
                f"lag_seconds (T) must be finite and > 0, got {self.lag_seconds}"
            )
        if not self.input_bytes:
            raise PlacementError("placement problem needs at least one dataset")
        sites = set(self.topology.site_names)
        for dataset_id, per_site in self.input_bytes.items():
            if dataset_id not in self.reduction_ratio:
                raise PlacementError(f"missing reduction ratio for {dataset_id!r}")
            ratio = self.reduction_ratio[dataset_id]
            if not 0.0 < ratio <= 1.0:
                raise PlacementError(
                    f"reduction ratio of {dataset_id!r} must be in (0, 1], got {ratio}"
                )
            unknown = set(per_site) - sites
            if unknown:
                raise PlacementError(
                    f"dataset {dataset_id!r} references unknown sites {sorted(unknown)}"
                )
            for site, value in per_site.items():
                if not (math.isfinite(value) and value >= 0):
                    raise PlacementError(
                        f"input_bytes I[{dataset_id!r}][{site!r}] must be finite"
                        f" and >= 0, got {value}"
                    )
            sims = self.similarity.get(dataset_id, {})
            for site, value in sims.items():
                if not 0.0 <= value < 1.0:
                    raise PlacementError(
                        f"S[{dataset_id!r}][{site!r}] must be in [0, 1), got {value}"
                    )
        for site, rate in self.compute_bps.items():
            if site not in sites:
                raise PlacementError(f"compute_bps names unknown site {site!r}")
            if not (math.isfinite(rate) and rate > 0):
                raise PlacementError(
                    f"compute_bps[{site!r}] must be finite and > 0, got {rate}"
                )
        for label, table in (("mobility", self.mobility),
                             ("cross_similarity", self.cross_similarity)):
            for dataset_id, pairs in table.items():
                for (src, dst), fraction in pairs.items():
                    if src not in sites or dst not in sites:
                        raise PlacementError(
                            f"{label}[{dataset_id!r}] names unknown sites "
                            f"({src}, {dst})"
                        )
                    if not 0.0 <= fraction <= 1.0:
                        raise PlacementError(
                            f"{label}[{dataset_id!r}][{(src, dst)}] must be in "
                            f"[0, 1], got {fraction}"
                        )

    # ------------------------------------------------------------------

    @property
    def dataset_ids(self) -> List[str]:
        return list(self.input_bytes.keys())

    @property
    def site_names(self) -> List[str]:
        return self.topology.site_names

    def I(self, dataset_id: str, site: str) -> float:  # noqa: E743 - Table 1 name
        return self.input_bytes.get(dataset_id, {}).get(site, 0.0)

    def R(self, dataset_id: str) -> float:
        return self.reduction_ratio[dataset_id]

    def S(self, dataset_id: str, site: str) -> float:
        return self.similarity.get(dataset_id, {}).get(site, 0.0)

    def mobility_cap(self, dataset_id: str, src: str, dst: str) -> float:
        """Max fraction of I_src^a that may move to dst (default 1.0)."""
        return self.mobility.get(dataset_id, {}).get((src, dst), 1.0)

    def Sij(self, dataset_id: str, src: str, dst: str) -> float:
        """:math:`S^a_{i,j}`: how much of src's data dst absorbs (default 0)."""
        return self.cross_similarity.get(dataset_id, {}).get((src, dst), 0.0)

    def U(self, site: str) -> float:
        return self.topology.uplink(site)

    def D(self, site: str) -> float:
        return self.topology.downlink(site)

    def shuffle_bytes(
        self, dataset_id: str, site: str, moves: Mapping[tuple, float]
    ) -> float:
        """:math:`f_i^a(x^a)` given moves ``{(i, j): bytes}``.

        Equation (1) refined with Table 1's cross-site similarity: data
        staying local combines at the local rate :math:`(1 - S_i^a)`;
        inflow from k combines at the pair's measured rate
        :math:`(1 - S^a_{k,i})` — with no similarity knowledge
        (:math:`S_{k,i} = 0`) this reduces exactly to equation (1).
        """
        moved_out = sum(
            volume
            for (src, _dst), volume in moves.items()
            if src == site
        )
        local = (self.I(dataset_id, site) - moved_out) * (
            1.0 - self.S(dataset_id, site)
        )
        inflow = sum(
            volume * (1.0 - self.Sij(dataset_id, src, site))
            for (src, dst), volume in moves.items()
            if dst == site
        )
        return (local + inflow) * self.R(dataset_id)

    def in_place_shuffle_bytes(self, dataset_id: str, site: str) -> float:
        """:math:`f_i^a` with no movement at all."""
        return self.shuffle_bytes(dataset_id, site, {})

    def total_input_at(self, site: str) -> float:
        return sum(self.I(dataset_id, site) for dataset_id in self.dataset_ids)

    def bottleneck_site(self) -> str:
        """Site with the largest intermediate upload time, in place."""
        def upload_time(site: str) -> float:
            total = sum(
                self.in_place_shuffle_bytes(dataset_id, site)
                for dataset_id in self.dataset_ids
            )
            return total / self.U(site)

        return max(self.site_names, key=upload_time)
