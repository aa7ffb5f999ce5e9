"""Jaccard-modified DIMSUM for all-pairs RDD-partition similarity (§6).

Computing exact pairwise Jaccard over all RDD partitions on a machine is
quadratic in records.  DIMSUM [34, 35] probabilistically skips pairs that
are very likely dissimilar, trading accuracy for time through a single
parameter γ.  The paper modifies it from cosine to Jaccard:

- *map*: each record gets m hash values (MinHash); two partitions become
  collision candidates whenever any hash slot matches, and the mapper
  emits candidate pairs with probability ``min(1, γ / sqrt(|X|·|Y|))``
  (the DIMSUM sampling rule, with partition cardinality standing in for
  column norms).
- *reduce*: count, per pair, the fraction of matching hash slots — the
  MinHash estimate of Jaccard — scaled back by the sampling probability.

Large γ ⇒ inspect (almost) every pair ⇒ accurate but slow; small γ ⇒ skip
most pairs ⇒ fast but approximate.

The hot path (:func:`dimsum_similarity_matrix`) is vectorized under an
RNG consumption-order contract: the per-pair reference (the test tree's
``tests/similarity/reference_dimsum.py``) draws one uniform per pair in
upper-triangle ``(i, j)`` order, and the columnar path draws the whole
vector at once with ``rng.random(num_pairs)`` over the same row-major
pairs — the identical stream in the identical order, so the same seed
skips the same pairs bit-for-bit.  Empty partitions share no keys with
anything, including each other: any pair with an empty side reports 0.0
similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from repro.errors import SimilarityError
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class DimsumConfig:
    """Tuning knobs for the DIMSUM pass."""

    gamma: float = 4.0
    num_hashes: int = 64
    seed: int = 7
    exact_below: int = 64  # partitions smaller than this compare exactly

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise SimilarityError("gamma must be > 0")
        if self.num_hashes < 1:
            raise SimilarityError("num_hashes must be >= 1")
        if self.exact_below < 0:
            raise SimilarityError("exact_below must be >= 0")


@dataclass
class DimsumStats:
    """Work accounting: how many pairs were examined vs skipped."""

    pairs_total: int = 0
    pairs_examined: int = 0
    pairs_skipped: int = 0

    @property
    def skip_fraction(self) -> float:
        if self.pairs_total == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_total


def dimsum_similarity_matrix(
    partitions: Sequence[Set],
    config: DimsumConfig = DimsumConfig(),
) -> Tuple[np.ndarray, DimsumStats]:
    """All-pairs Jaccard similarity matrix over record-key sets.

    Returns an ``(n, n)`` symmetric matrix with unit diagonal and the
    work-accounting stats.  Skipped pairs get similarity 0.0 — by
    construction they are pairs the sampling rule deemed very unlikely to
    be similar.  Pairs with an empty side also report 0.0.

    This is the columnar path: the full sampling-probability vector over
    the upper triangle, one ``rng.random(k)`` draw matching the scalar
    per-pair stream, and — only when some examined pair is large enough
    to be estimated — batched signatures with matrix-slot comparison for
    every estimated pair at once.  Bit-identical to the per-pair
    reference the parity suite keeps.
    """
    n = len(partitions)
    matrix = np.eye(n, dtype=float)
    stats = DimsumStats()
    if n < 2:
        return matrix, stats

    rng = derive_rng(config.seed, "dimsum-sampling")
    lengths = np.fromiter(
        (len(partition) for partition in partitions), dtype=np.int64, count=n
    )
    sizes = np.maximum(lengths, 1).astype(np.float64)
    # The upper triangle in row-major order, as np.triu_indices(n, 1)
    # lists it, from one comparison instead of its helper arrays.
    index = np.arange(n)
    rows, cols = np.nonzero(index[:, None] < index)
    num_pairs = rows.size
    # min(1, γ/√(ni·nj)) per pair; int sizes convert to float64 exactly
    # and np.sqrt is correctly rounded like math.sqrt, so each entry
    # equals the scalar per-pair probability bit-for-bit.
    probability = np.minimum(
        1.0, config.gamma / np.sqrt(sizes[rows] * sizes[cols])
    )
    # RNG consumption-order contract: one vector draw is the same stream
    # as num_pairs successive rng.random() calls in triu (i, j) order.
    draws = rng.random(num_pairs)
    examined = ~(draws > probability)

    stats.pairs_total = num_pairs
    stats.pairs_examined = int(np.count_nonzero(examined))
    stats.pairs_skipped = num_pairs - stats.pairs_examined

    nonempty = (lengths[rows] > 0) & (lengths[cols] > 0)
    small = np.minimum(lengths[rows], lengths[cols])
    exact_mask = examined & nonempty & (small < config.exact_below)
    estimate_mask = examined & nonempty & ~(small < config.exact_below)

    # Exact path: set-based Jaccard stays a per-pair Python computation
    # (set intersections do not vectorize); only sampled small pairs pay.
    # Both sides are non-empty, so |X ∩ Y| / |X ∪ Y| is jaccard() with
    # the union counted as |X| + |Y| - |X ∩ Y|: the same two ints.
    exact_rows = rows[exact_mask].tolist()
    if exact_rows:
        exact_cols = cols[exact_mask].tolist()
        sizes_of = lengths.tolist()
        similarities = []
        for i, j in zip(exact_rows, exact_cols):
            shared = len(partitions[i] & partitions[j])
            similarities.append(shared / (sizes_of[i] + sizes_of[j] - shared))
        matrix[exact_rows, exact_cols] = similarities
        matrix[exact_cols, exact_rows] = similarities

    if np.any(estimate_mask):
        # Signatures are read nowhere else, so they are built (and the
        # hasher's module loaded) only here.
        from repro.similarity.minhash import MinHasher

        hasher = MinHasher(num_hashes=config.num_hashes, seed=config.seed)
        signatures = hasher.signatures(partitions)
        slots = np.array(
            [signature.values for signature in signatures], dtype=np.int64
        )
        est_rows = rows[estimate_mask]
        est_cols = cols[estimate_mask]
        matches = np.count_nonzero(
            slots[est_rows] == slots[est_cols], axis=1
        )
        estimates = matches / config.num_hashes
        matrix[est_rows, est_cols] = estimates
        matrix[est_cols, est_rows] = estimates
    return matrix, stats


def exact_similarity_matrix(partitions: Sequence[Set]) -> np.ndarray:
    """Exact all-pairs Jaccard (the oracle DIMSUM approximates)."""
    from repro.similarity.metrics import jaccard

    n = len(partitions)
    matrix = np.eye(n, dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = jaccard(partitions[i], partitions[j])
    return matrix


def matrix_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Mean absolute error between two similarity matrices' upper triangles."""
    if approx.shape != exact.shape:
        raise SimilarityError("matrix shapes differ")
    n = approx.shape[0]
    if n < 2:
        return 0.0
    indices = np.triu_indices(n, k=1)
    return float(np.mean(np.abs(approx[indices] - exact[indices])))
