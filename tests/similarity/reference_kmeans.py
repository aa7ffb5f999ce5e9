"""The Lloyd's k-means ``repro.similarity.kmeans`` ran before its
centroid update became one fold.

Kept verbatim as the oracle for :func:`kmeans`: each iteration moves
every centroid with its own mask, index and ``mean(axis=0)``, and the
k-means++ seeding draws with ``rng.choice(n, p=...)``.  The shipped code
folds the centroid sums with one ``np.add.at`` and draws the seeding
pick from the same normalized cdf ``choice`` builds; the parity property
holds labels, iterations, inertia and centroid bytes to this code.
"""

from typing import Sequence

import numpy as np

from repro.errors import SimilarityError
from repro.similarity.kmeans import KMeansResult
from repro.util.rng import derive_rng


def reference_kmeans(
    data: "Sequence[Sequence[float]] | np.ndarray",
    k: int,
    seed: int = 7,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> KMeansResult:
    """Per-cluster reference implementation of :func:`kmeans`.

    When ``k >= n`` every point gets its own cluster.  Empty clusters are
    re-seeded with the point farthest from its centroid, so exactly ``k``
    non-degenerate clusters come back whenever ``n >= k``.
    """
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2:
        raise SimilarityError(f"data must be 2-D, got shape {matrix.shape}")
    n = matrix.shape[0]
    if k < 1:
        raise SimilarityError("k must be >= 1")
    if n == 0:
        return KMeansResult([], np.zeros((0, matrix.shape[1])), 0.0, 0)
    if k >= n:
        return KMeansResult(
            labels=list(range(n)), centroids=matrix.copy(), inertia=0.0, iterations=0
        )

    rng = derive_rng(seed, "kmeans", n, k)
    centroids = _reference_kmeanspp_init(matrix, k, rng)
    labels = np.zeros(n, dtype=int)
    iterations = 0
    previous_inertia = np.inf
    for iterations in range(1, max_iter + 1):
        distances = _reference_sq_distances(matrix, centroids)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(n), labels].sum())
        for cluster in range(k):
            members = matrix[labels == cluster]
            if len(members) == 0:
                # Re-seed with the globally worst-fit point.
                worst = int(np.argmax(distances[np.arange(n), labels]))
                centroids[cluster] = matrix[worst]
                labels[worst] = cluster
            else:
                centroids[cluster] = members.mean(axis=0)
        if previous_inertia - inertia <= tol:
            break
        previous_inertia = inertia
    distances = _reference_sq_distances(matrix, centroids)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(n), labels].sum())
    return KMeansResult(
        labels=[int(label) for label in labels],
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
    )


def _reference_kmeanspp_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]), dtype=float)
    centroids[0] = matrix[rng.integers(0, n)]
    closest = _reference_sq_distances(matrix, centroids[:1]).ravel()
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[index] = matrix[rng.integers(0, n)]
            continue
        probabilities = closest / total
        choice = rng.choice(n, p=probabilities)
        centroids[index] = matrix[choice]
        distances = _reference_sq_distances(matrix, centroids[index : index + 1]).ravel()
        closest = np.minimum(closest, distances)
    return centroids


def _reference_sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centers)."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)
