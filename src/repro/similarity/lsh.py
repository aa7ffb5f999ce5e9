"""Locality sensitive hashing (§4.2, [18]).

:class:`CosineLSH` — random-hyperplane signatures that compress
high-dimensional feature vectors (the paper's image datasets) into short
bit strings whose Hamming similarity tracks cosine similarity.  The image
workload (:mod:`repro.workloads.images`) keys its records on them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SimilarityError
from repro.util.rng import derive_rng


class CosineLSH:
    """Random-hyperplane LSH reducing vector dimensionality (§4.2).

    Each of ``num_bits`` random hyperplanes contributes one sign bit; the
    fraction of agreeing bits between two signatures estimates
    ``1 − θ/π`` where θ is the angle between the vectors.
    """

    def __init__(self, input_dim: int, num_bits: int = 64, seed: int = 7) -> None:
        if input_dim < 1:
            raise SimilarityError("input_dim must be >= 1")
        if num_bits < 1:
            raise SimilarityError("num_bits must be >= 1")
        self.input_dim = input_dim
        self.num_bits = num_bits
        rng = derive_rng(seed, "cosine-lsh")
        self._planes = rng.standard_normal((num_bits, input_dim))

    def signature(self, vector: Sequence[float]) -> np.ndarray:
        """Bit signature (array of 0/1) of one vector."""
        arr = np.asarray(vector, dtype=float)
        if arr.shape != (self.input_dim,):
            raise SimilarityError(
                f"expected vector of dim {self.input_dim}, got shape {arr.shape}"
            )
        return (self._planes @ arr >= 0.0).astype(np.uint8)

    def signatures(self, vectors: Sequence[Sequence[float]]) -> np.ndarray:
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.input_dim:
            raise SimilarityError(
                f"expected (n, {self.input_dim}) matrix, got {matrix.shape}"
            )
        return (matrix @ self._planes.T >= 0.0).astype(np.uint8)

    @staticmethod
    def estimate_cosine(sig_left: np.ndarray, sig_right: np.ndarray) -> float:
        """Estimated cosine similarity from two bit signatures."""
        if sig_left.shape != sig_right.shape:
            raise SimilarityError("signature shapes differ")
        agreement = float(np.mean(sig_left == sig_right))
        theta = (1.0 - agreement) * math.pi
        return math.cos(theta)
