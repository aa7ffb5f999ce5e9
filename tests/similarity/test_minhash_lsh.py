"""MinHash and cosine LSH tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimilarityError
from repro.similarity.lsh import CosineLSH
from repro.similarity.metrics import cosine_similarity, jaccard
from repro.similarity.minhash import MinHasher


class TestMinHasher:
    def test_deterministic(self):
        hasher = MinHasher(num_hashes=32, seed=1)
        assert hasher.signature({1, 2, 3}).values == hasher.signature({3, 2, 1}).values

    def test_identical_sets_full_match(self):
        hasher = MinHasher(num_hashes=32)
        sig = hasher.signature({"a", "b"})
        assert sig.estimate_jaccard(sig) == 1.0

    def test_disjoint_sets_near_zero(self):
        hasher = MinHasher(num_hashes=128)
        left = hasher.signature(set(range(0, 100)))
        right = hasher.signature(set(range(1000, 1100)))
        assert left.estimate_jaccard(right) < 0.1

    def test_estimate_tracks_true_jaccard(self):
        hasher = MinHasher(num_hashes=256, seed=3)
        left = set(range(0, 100))
        right = set(range(50, 150))
        estimate = hasher.signature(left).estimate_jaccard(hasher.signature(right))
        truth = jaccard(left, right)
        assert abs(estimate - truth) < 0.12

    def test_empty_set_sentinel_never_collides(self):
        hasher = MinHasher(num_hashes=16)
        empty = hasher.signature(set())
        full = hasher.signature({"x"})
        assert empty.estimate_jaccard(full) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(SimilarityError):
            MinHasher(num_hashes=8).signature({1}).estimate_jaccard(
                MinHasher(num_hashes=16).signature({1})
            )

    def test_bad_num_hashes(self):
        with pytest.raises(SimilarityError):
            MinHasher(num_hashes=0)

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=80))
    def test_self_similarity_is_one(self, items):
        hasher = MinHasher(num_hashes=32, seed=5)
        sig = hasher.signature(items)
        assert sig.estimate_jaccard(sig) == 1.0


class TestCosineLSH:
    def test_signature_shape(self):
        lsh = CosineLSH(input_dim=16, num_bits=32)
        assert lsh.signature(np.ones(16)).shape == (32,)

    def test_batch_matches_single(self):
        lsh = CosineLSH(input_dim=8, num_bits=16, seed=4)
        vectors = np.random.default_rng(0).standard_normal((5, 8))
        batch = lsh.signatures(vectors)
        for row in range(5):
            assert np.array_equal(batch[row], lsh.signature(vectors[row]))

    def test_estimate_tracks_cosine(self):
        lsh = CosineLSH(input_dim=32, num_bits=512, seed=6)
        rng = np.random.default_rng(1)
        base = rng.standard_normal(32)
        close = base + 0.1 * rng.standard_normal(32)
        est = CosineLSH.estimate_cosine(lsh.signature(base), lsh.signature(close))
        truth = cosine_similarity(base, close)
        assert abs(est - truth) < 0.15

    def test_identical_vector_estimate_one(self):
        lsh = CosineLSH(input_dim=8, num_bits=64)
        vec = np.arange(1, 9, dtype=float)
        sig = lsh.signature(vec)
        assert CosineLSH.estimate_cosine(sig, sig) == pytest.approx(1.0)

    def test_dim_validation(self):
        lsh = CosineLSH(input_dim=4)
        with pytest.raises(SimilarityError):
            lsh.signature([1.0, 2.0])
        with pytest.raises(SimilarityError):
            lsh.signatures(np.ones((3, 7)))

    def test_bad_construction(self):
        with pytest.raises(SimilarityError):
            CosineLSH(input_dim=0)
        with pytest.raises(SimilarityError):
            CosineLSH(input_dim=4, num_bits=0)
