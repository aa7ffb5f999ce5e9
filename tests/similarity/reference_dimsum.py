"""The per-pair DIMSUM pass ``repro.similarity.dimsum`` shipped beside its
vectorized replacement until PR 20.

Kept verbatim as the oracle for :func:`dimsum_similarity_matrix`: one
uniform per pair in upper-triangle ``(i, j)`` order (the RNG
consumption-order contract), one :meth:`MinHasher.signature` per
partition, one Jaccard or slot comparison per examined pair.
"""

import math
from typing import Sequence, Set, Tuple

import numpy as np

from repro.similarity.dimsum import DimsumConfig, DimsumStats
from repro.similarity.metrics import jaccard
from repro.similarity.minhash import MinHasher
from repro.util.rng import derive_rng


def dimsum_similarity_matrix_scalar(
    partitions: Sequence[Set],
    config: DimsumConfig = DimsumConfig(),
) -> Tuple[np.ndarray, DimsumStats]:
    """Per-pair reference implementation of :func:`dimsum_similarity_matrix`."""
    n = len(partitions)
    matrix = np.eye(n, dtype=float)
    stats = DimsumStats()
    if n < 2:
        return matrix, stats

    hasher = MinHasher(num_hashes=config.num_hashes, seed=config.seed)
    signatures = [hasher.signature(items) for items in partitions]
    sizes = [max(len(partition), 1) for partition in partitions]
    rng = derive_rng(config.seed, "dimsum-sampling")

    for i in range(n):
        for j in range(i + 1, n):
            stats.pairs_total += 1
            # DIMSUM sampling rule: examine with prob min(1, γ/sqrt(ni·nj)).
            probability = min(1.0, config.gamma / math.sqrt(sizes[i] * sizes[j]))
            if rng.random() > probability:
                stats.pairs_skipped += 1
                continue
            stats.pairs_examined += 1
            if not partitions[i] or not partitions[j]:
                # Empty partitions share no keys with anything — including
                # each other (set-based jaccard would report ∅ vs ∅ as 1.0).
                continue
            small = min(len(partitions[i]), len(partitions[j]))
            if small < config.exact_below:
                similarity = jaccard(partitions[i], partitions[j])
            else:
                # Map/reduce estimate: fraction of colliding hash slots.
                similarity = signatures[i].estimate_jaccard(signatures[j])
            matrix[i, j] = matrix[j, i] = similarity
    return matrix, stats
