"""Synthetic record generation with controllable similarity structure.

Real geo-distributed logs have (a) globally popular keys following a
Zipf law and (b) regionally local keys tied to where the data was
procured.  Both matter to Bohr: popular keys give every pair of sites
some overlap, local keys give high intra-site similarity that
locality-aware placement concentrates.

Each record carries a *home region* attribute used by locality-aware
initial placement, plus key/date/agent attributes used by queries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.types import Record, Schema
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Key-space shape for one synthetic dataset."""

    num_popular_keys: int = 40
    local_keys_per_region: int = 20
    zipf_exponent: float = 1.2
    locality_bias: float = 0.6  # P(record uses a region-local key)
    num_days: int = 14
    num_agents: int = 5

    def __post_init__(self) -> None:
        if self.num_popular_keys < 1:
            raise WorkloadError("num_popular_keys must be >= 1")
        if self.local_keys_per_region < 0:
            raise WorkloadError("local_keys_per_region must be >= 0")
        if self.zipf_exponent <= 0:
            raise WorkloadError("zipf_exponent must be > 0")
        if not 0.0 <= self.locality_bias <= 1.0:
            raise WorkloadError("locality_bias must be in [0, 1]")
        if self.num_days < 1 or self.num_agents < 1:
            raise WorkloadError("num_days and num_agents must be >= 1")


def log_schema() -> Schema:
    """The web-log schema used by synthetic datasets."""
    return Schema.of(
        "url", "score", "date", "region", "agent",
        kinds={"score": "numeric"},
    )


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Normalized Zipf probabilities over ``count`` ranks."""
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


#: How far from 1 ``Generator.choice`` lets probabilities sum.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def weighted_sampler(rng: np.random.Generator, p: np.ndarray) -> Callable[[], int]:
    """A draw of ``rng.choice(len(p), p=p)``, without its per-call cost.

    ``choice`` checks ``p``, normalizes its running sum into a cdf, draws
    one ``rng.random()`` and answers the right-hand insertion point of
    that draw in the cdf.  Here ``p`` is checked and the cdf built once;
    each call is that one draw and a bisect, so the stream is consumed
    exactly as ``choice`` consumes it and every pick is the same.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not p.size:
        raise WorkloadError("probabilities must be a non-empty 1-d array")
    total = float(p.sum())
    if math.isnan(total):
        raise WorkloadError("probabilities contain NaN")
    if (p < 0).any():
        raise WorkloadError("probabilities must be >= 0")
    if not abs(total - 1.0) <= _SUM_TOLERANCE:
        raise WorkloadError(f"probabilities sum to {total!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bounds = cdf.tolist()
    random = rng.random
    return lambda: bisect_right(bounds, random())


def round_half_even(value: float, decimals: int) -> float:
    """``float(np.round(value, decimals))`` for a float, without NumPy's
    per-call cost.

    NumPy scales by ``10**decimals``, rounds half to even (``rint``) and
    scales back; ``round`` of a float is half-even too.  ``round``
    answers an int, which loses the sign of a zero (NumPy rounds
    ``-0.004`` to two places as ``-0.0``), so the sign is put back; a
    non-finite value has no int and passes through as ``rint`` passes it.
    """
    scale = 10.0 ** decimals
    scaled = value * scale
    try:
        return math.copysign(round(scaled) / scale, value)
    except (OverflowError, ValueError):
        return scaled / scale


def generate_records(
    dataset_id: str,
    regions: Sequence[str],
    count: int,
    record_bytes: int = 1024 * 1024,
    config: Optional[SyntheticDatasetConfig] = None,
    seed: int = 7,
) -> List[Record]:
    """Generate ``count`` log records spread over ``regions``.

    Each record's home region is uniform over ``regions``; its URL comes
    from the region's local key block with probability ``locality_bias``,
    otherwise from the global Zipf-popular block.  Scores, dates and
    agents are drawn independently.
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if not regions:
        raise WorkloadError("need at least one region")
    config = config or SyntheticDatasetConfig()
    rng = derive_rng(seed, "synthetic", dataset_id)

    popular = [f"{dataset_id}/hot-{index}" for index in range(config.num_popular_keys)]
    popular_p = zipf_weights(config.num_popular_keys, config.zipf_exponent)
    local_keys = {
        region: [
            f"{dataset_id}/{region}/local-{index}"
            for index in range(config.local_keys_per_region)
        ]
        for region in regions
    }
    days = [f"2018-06-{day:02d}" for day in range(1, config.num_days + 1)]
    agents = [f"agent-{index}" for index in range(config.num_agents)]

    records: List[Record] = []
    home_regions = rng.integers(0, len(regions), size=count).tolist()
    use_local = (rng.random(count) < config.locality_bias).tolist()
    draw_popular = weighted_sampler(rng, popular_p)
    for position in range(count):
        region = regions[home_regions[position]]
        region_local = local_keys[region]
        if use_local[position] and region_local:
            url = region_local[int(rng.integers(0, len(region_local)))]
        else:
            url = popular[draw_popular()]
        record = Record(
            values=(
                url,
                round_half_even(rng.uniform(0.0, 10.0), 3),
                days[int(rng.integers(0, len(days)))],
                region,
                agents[int(rng.integers(0, len(agents)))],
            ),
            size_bytes=record_bytes,
        )
        records.append(record)
    return records
