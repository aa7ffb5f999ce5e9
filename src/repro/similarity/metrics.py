"""Similarity metrics.

Two families are used in the paper: set-based Jaccard (for record keys,
§6) and cosine (for high-dimension feature vectors, DIMSUM's native
metric).  ``intra_similarity`` is the :math:`S_i^a` of Table 1 — the
fraction of a site's records the combiner can merge away.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Mapping, Sequence, Set

import numpy as np

from repro.errors import SimilarityError
from repro.types import Key


def jaccard(left: Set, right: Set) -> float:
    """Plain Jaccard similarity |X ∩ Y| / |X ∪ Y|; 1.0 for two empty sets."""
    if not left and not right:
        return 1.0
    union = len(left | right)
    return len(left & right) / union


def weighted_jaccard(left: Mapping[Key, float], right: Mapping[Key, float]) -> float:
    """Weighted (multiset) Jaccard: Σ min(w) / Σ max(w) over all keys."""
    if not left and not right:
        return 1.0
    numerator = 0.0
    denominator = 0.0
    # Sorted union: float accumulation order must not depend on the
    # process hash seed (keys may be any homogeneous Key type, so sort
    # on repr).
    for key in sorted(set(left) | set(right), key=repr):
        weight_left = left.get(key, 0.0)
        weight_right = right.get(key, 0.0)
        numerator += min(weight_left, weight_right)
        denominator += max(weight_left, weight_right)
    if denominator <= 0.0:
        return 1.0
    return numerator / denominator


def overlap_coefficient(left: Set, right: Set) -> float:
    """|X ∩ Y| / min(|X|, |Y|); 1.0 when either set is empty."""
    if not left or not right:
        return 1.0
    return len(left & right) / min(len(left), len(right))


def cosine_similarity(left: Sequence[float], right: Sequence[float]) -> float:
    """Cosine of the angle between two vectors; 0.0 for a zero vector."""
    left_arr = np.asarray(left, dtype=float)
    right_arr = np.asarray(right, dtype=float)
    if left_arr.shape != right_arr.shape:
        raise SimilarityError(
            f"vector shapes differ: {left_arr.shape} vs {right_arr.shape}"
        )
    norm = float(np.linalg.norm(left_arr) * np.linalg.norm(right_arr))
    if norm <= 0.0:
        return 0.0
    return float(np.dot(left_arr, right_arr) / norm)


def intra_similarity(keys: Iterable[Key]) -> float:
    """:math:`S_i^a`: 1 − distinct/total over a site's record keys.

    A combiner collapses identical keys, so a shard with ``total`` records
    but only ``distinct`` keys emits ``distinct`` combined records — i.e.
    a fraction ``1 − distinct/total`` of the intermediate data vanishes.
    Returns 0.0 for an empty shard (nothing to combine).
    """
    counts = Counter(keys)
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return 1.0 - len(counts) / total


def key_histogram(keys: Iterable[Key]) -> Dict[Key, int]:
    """Count occurrences of each key (helper shared by probes/checker)."""
    return dict(Counter(keys))


def merge_ratio(site_keys: Sequence[Key], incoming_keys: Sequence[Key]) -> float:
    """Fraction of incoming records whose keys already exist at the site.

    This is the quantity a receiving site cares about when data moves in:
    incoming records with locally-present keys are absorbed for free by
    the combiner (Figure 1c), the rest enlarge the shuffle (Figure 1b).
    """
    if not incoming_keys:
        return 1.0
    present = set(site_keys)
    matched = sum(1 for key in incoming_keys if key in present)
    return matched / len(incoming_keys)
