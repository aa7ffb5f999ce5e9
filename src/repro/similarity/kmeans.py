"""Seeded Lloyd's k-means (stand-in for Spark MLlib's k-means, §7).

Used at runtime to cluster RDD partitions by their rows of the similarity
matrix, so similar partitions land on the same executor (§6).  Includes
k-means++ seeding and empty-cluster repair; deterministic given a seed.

The inputs are tiny (5–20 points), so each step is one NumPy pass
whose float order matches the per-cluster code the parity suite keeps
(``tests/similarity/reference_kmeans.py``): the centroid update is one
``np.add.at`` fold from ``+0.0`` — the row-order sum ``mean(axis=0)``
takes from the same identity — and the k-means++ pick is the draw
``rng.choice(n, p=...)`` makes.  Distances stay one ``einsum``: a plain
row sum rounds differently from it once d >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import SimilarityError
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome."""

    labels: List[int]
    centroids: np.ndarray
    inertia: float
    iterations: int

    def members(self, cluster: int) -> List[int]:
        return [index for index, label in enumerate(self.labels) if label == cluster]


def kmeans(
    data: "Sequence[Sequence[float]] | np.ndarray",
    k: int,
    seed: int = 7,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> KMeansResult:
    """Cluster rows of ``data`` into ``k`` groups.

    When ``k >= n`` every point gets its own cluster.  Empty clusters are
    re-seeded with the point farthest from its centroid, so exactly ``k``
    non-degenerate clusters come back whenever ``n >= k``.
    """
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2:
        raise SimilarityError(f"data must be 2-D, got shape {matrix.shape}")
    finite = np.isfinite(matrix)
    if not finite.all():
        row, column = (int(index) for index in np.argwhere(~finite)[0])
        raise SimilarityError(
            f"data must be finite: row {row}, column {column} "
            f"is {matrix[row, column]}"
        )
    n, d = matrix.shape
    if k < 1:
        raise SimilarityError("k must be >= 1")
    if n == 0:
        return KMeansResult([], np.zeros((0, d)), 0.0, 0)
    if k >= n:
        return KMeansResult(
            labels=list(range(n)), centroids=matrix.copy(), inertia=0.0, iterations=0
        )

    rng = derive_rng(seed, "kmeans", n, k)
    centroids = _kmeanspp_init(matrix, k, rng)
    points = np.arange(n)
    iterations = 0
    previous_inertia = np.inf
    for iterations in range(1, max_iter + 1):
        distances = _pairwise_sq_distances(matrix, centroids)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[points, labels].sum())
        counts = np.bincount(labels, minlength=k)
        if d > 1 and counts.all():
            # mean(axis=0) sums a cluster's rows in index order from the
            # +0.0 identity; add.at folds every cluster the same way.
            # One column is a contiguous reduce, which numpy sums
            # pairwise, so d == 1 keeps the per-cluster means.
            sums = np.zeros((k, d))
            np.add.at(sums, labels, matrix)
            centroids = sums / counts[:, None]
        else:
            _update_per_cluster(matrix, centroids, distances, labels, points)
        if previous_inertia - inertia <= tol:
            break
        previous_inertia = inertia
    distances = _pairwise_sq_distances(matrix, centroids)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[points, labels].sum())
    return KMeansResult(
        labels=labels.tolist(),
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
    )


def _update_per_cluster(
    matrix: np.ndarray,
    centroids: np.ndarray,
    distances: np.ndarray,
    labels: np.ndarray,
    points: np.ndarray,
) -> None:
    """Move each centroid to its members' mean, re-seeding empty clusters.

    Cluster by cluster in order: a re-seed relabels the worst-fit point,
    which leaves the clusters after it one member short.
    """
    for cluster in range(centroids.shape[0]):
        members = matrix[labels == cluster]
        if len(members) == 0:
            # Re-seed with the globally worst-fit point.
            worst = int(np.argmax(distances[points, labels]))
            centroids[cluster] = matrix[worst]
            labels[worst] = cluster
        else:
            centroids[cluster] = members.mean(axis=0)


def _kmeanspp_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]), dtype=float)
    centroids[0] = matrix[rng.integers(0, n)]
    closest = _pairwise_sq_distances(matrix, centroids[:1]).ravel()
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[index] = matrix[rng.integers(0, n)]
            continue
        if not math.isfinite(total):
            raise SimilarityError(
                "squared distances overflow: data too large to cluster"
            )
        # rng.choice(n, p=closest / total), drawn as choice draws it:
        # normalized cdf, one uniform, the right-hand insertion point.
        cdf = np.cumsum(closest / total)
        cdf /= cdf[-1]
        choice = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[index] = matrix[choice]
        distances = _pairwise_sq_distances(matrix, centroids[index : index + 1]).ravel()
        closest = np.minimum(closest, distances)
    return centroids


def _pairwise_sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centers)."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)
