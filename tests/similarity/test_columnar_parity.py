"""Scalar/columnar parity for the similarity substrate, plus the
empty-set regression pins.

:func:`MinHasher.signatures` and :func:`dimsum_similarity_matrix` are
batched rewrites of scalar references (:meth:`MinHasher.signature` per
set; ``tests/similarity/reference_dimsum.py``); randomized workloads
(varied seeds, skews, empty partitions) must match them bit-for-bit —
identical signature tuples, identical matrices, identical stats, and an
identical RNG consumption order.

The empty-set pins cover the bugfix: an empty set has no elements, so
its Jaccard similarity with anything (including another empty set) is
0.0 and it never LSH-collides — previously the shared sentinel made
empty signatures collide with each other at similarity 1.0.
"""

import random

import numpy as np
import pytest

from repro.similarity import minhash as minhash_mod
from repro.similarity.dimsum import (
    DimsumConfig,
    dimsum_similarity_matrix,
    exact_similarity_matrix,
)
from repro.similarity.metrics import jaccard
from repro.similarity.minhash import MinHasher

from tests.similarity.reference_dimsum import dimsum_similarity_matrix_scalar


def random_sets(rng, count):
    pool = [f"item-{i}" for i in range(60)]
    sets = []
    for _ in range(count):
        size = rng.choice([0, 0, 1, 3, 10, 40])  # empties are common
        sets.append(set(rng.sample(pool, size)))
    return sets


class TestSignatureParity:
    def test_randomized_batches_match_scalar(self):
        for seed in range(25):
            rng = random.Random(seed)
            hasher = MinHasher(
                num_hashes=rng.choice([4, 8, 32]), seed=rng.randint(0, 999)
            )
            sets = random_sets(rng, rng.choice([0, 1, 2, 7, 30]))
            batched = hasher.signatures(sets)
            assert [s.values for s in batched] == [
                hasher.signature(item).values for item in sets
            ]

    def test_chunk_boundary_flush(self, monkeypatch):
        # Force multiple column-chunk flushes through a tiny batch budget;
        # results must not depend on where the chunks split.
        rng = random.Random(42)
        hasher = MinHasher(num_hashes=8, seed=3)
        sets = random_sets(rng, 20)
        expected = [s.values for s in hasher.signatures(sets)]
        monkeypatch.setattr(minhash_mod, "_BATCH_COLUMNS", 5)
        assert [s.values for s in hasher.signatures(sets)] == expected

    def test_mixed_types_hash_like_scalar(self):
        hasher = MinHasher(num_hashes=16, seed=9)
        sets = [{1, 2, 3}, {"1", "2"}, {("a", 1), ("a", 2)}, set()]
        batched = hasher.signatures(sets)
        assert [s.values for s in batched] == [
            hasher.signature(item).values for item in sets
        ]


class TestEmptySetRegression:
    """Pins for the empty-set MinHash bugfix (satellite a)."""

    def test_empty_vs_empty_is_zero_not_one(self):
        hasher = MinHasher(num_hashes=16, seed=2)
        first = hasher.signature(set())
        second = hasher.signature(set())
        assert first.is_empty and second.is_empty
        assert first.estimate_jaccard(second) == 0.0
        assert not first.collides_with(second)

    def test_empty_vs_nonempty_is_zero(self):
        hasher = MinHasher(num_hashes=16, seed=2)
        empty = hasher.signature(set())
        full = hasher.signature({"x", "y"})
        assert empty.estimate_jaccard(full) == 0.0
        assert full.estimate_jaccard(empty) == 0.0
        assert not empty.collides_with(full)
        assert not full.collides_with(empty)

    def test_batched_empties_carry_the_sentinel(self):
        hasher = MinHasher(num_hashes=8, seed=5)
        batched = hasher.signatures([set(), {"x"}, set()])
        assert batched[0].is_empty
        assert not batched[1].is_empty
        assert batched[2].is_empty
        assert batched[0].estimate_jaccard(batched[2]) == 0.0

    def test_dimsum_matrix_entries_for_empty_partitions(self):
        # gamma so large every pair is examined: entries touching an
        # empty partition must stay exactly 0.0, real pairs stay exact.
        partitions = [set(), {"a", "b"}, {"a", "b", "c"}, set()]
        config = DimsumConfig(
            gamma=1e9, num_hashes=16, seed=1, exact_below=10**6
        )
        matrix, stats = dimsum_similarity_matrix(partitions, config)
        assert stats.pairs_examined == 6
        # Off-diagonal entries touching an empty partition are exactly
        # 0.0 (the diagonal stays 1.0 by construction).  In particular
        # empty-vs-empty is 0.0, not the set-identity 1.0.
        assert matrix[0, 3] == 0.0 and matrix[3, 0] == 0.0
        for j in (1, 2, 3):
            assert matrix[0, j] == 0.0 and matrix[j, 0] == 0.0
        for j in (0, 1, 2):
            assert matrix[3, j] == 0.0 and matrix[j, 3] == 0.0
        assert matrix[1, 2] == pytest.approx(
            jaccard(partitions[1], partitions[2])
        )
        assert matrix[1, 2] == matrix[2, 1]  # lint: allow[R004]


class TestDimsumParity:
    def test_randomized_matrices_match_scalar(self):
        for seed in range(20):
            rng = random.Random(seed)
            partitions = [
                set(item) if not isinstance(item, set) else item
                for item in random_sets(rng, rng.choice([0, 1, 2, 6, 15]))
            ]
            config = DimsumConfig(
                gamma=rng.choice([0.1, 1.0, 4.0, 1e9]),
                num_hashes=rng.choice([4, 16]),
                seed=rng.randint(0, 999),
                exact_below=rng.choice([0, 3, 10**6]),
            )
            expected_matrix, expected_stats = dimsum_similarity_matrix_scalar(
                partitions, config
            )
            matrix, stats = dimsum_similarity_matrix(partitions, config)
            assert np.array_equal(matrix, expected_matrix)
            assert stats == expected_stats

    def test_rng_consumption_order_is_the_scalar_order(self):
        # The vectorized path must draw its pair-sampling randoms in the
        # exact order the scalar loop consumed them, or sampled pairs
        # (hence matrices) diverge.  A skew where probabilities differ
        # per pair makes any reordering visible.
        partitions = [
            {f"i{i}-{j}" for j in range(2 + 7 * i)} for i in range(10)
        ]
        config = DimsumConfig(gamma=2.0, num_hashes=8, seed=77, exact_below=0)
        expected, _ = dimsum_similarity_matrix_scalar(partitions, config)
        matrix, _ = dimsum_similarity_matrix(partitions, config)
        assert np.array_equal(matrix, expected)

    def test_matches_exact_matrix_when_everything_exact(self):
        # Non-empty partitions only: for empty ones DIMSUM deliberately
        # reports 0.0 where set-identity jaccard would say 1.0.
        rng = random.Random(8)
        partitions = [s for s in random_sets(rng, 16) if s][:8]
        assert len(partitions) >= 4
        config = DimsumConfig(
            gamma=1e9, num_hashes=8, seed=1, exact_below=10**6
        )
        matrix, _ = dimsum_similarity_matrix(partitions, config)
        assert np.array_equal(matrix, exact_similarity_matrix(partitions))


class TestLazySignatures:
    """MinHash signatures are built only when some pair is estimated."""

    CONFIG = DimsumConfig(gamma=1e9, num_hashes=16, seed=3, exact_below=8)

    @pytest.fixture
    def signature_calls(self, monkeypatch):
        calls = []
        batched = MinHasher.signatures

        def spy(hasher, sets):
            calls.append(len(sets))
            return batched(hasher, sets)

        monkeypatch.setattr(MinHasher, "signatures", spy)
        return calls

    def test_no_signatures_when_every_pair_is_exact(self, signature_calls):
        # Every pair has a side under exact_below (one big set included),
        # so each examined pair is set-based Jaccard.
        partitions = [
            {f"k{i}" for i in range(5)},
            {f"k{i}" for i in range(3, 40)},
            {f"k{i}" for i in range(2, 9)},
            set(),
        ]
        matrix, stats = dimsum_similarity_matrix(partitions, self.CONFIG)
        assert signature_calls == []
        assert stats.pairs_examined == 6
        expected, expected_stats = dimsum_similarity_matrix_scalar(
            partitions, self.CONFIG
        )
        assert np.array_equal(matrix, expected)
        assert stats == expected_stats

    def test_no_signatures_when_the_large_pair_is_skipped(self, signature_calls):
        # Two sets big enough to estimate, but gamma so small that the
        # sampling rule skips the pair: nothing reads a signature.
        partitions = [{f"a{i}" for i in range(50)}, {f"a{i}" for i in range(25, 90)}]
        config = DimsumConfig(gamma=1e-9, num_hashes=16, seed=3, exact_below=8)
        matrix, stats = dimsum_similarity_matrix(partitions, config)
        assert stats.pairs_skipped == 1
        assert signature_calls == []
        assert np.array_equal(matrix, np.eye(2))

    def test_one_estimated_pair_builds_them_once(self, signature_calls):
        partitions = [
            {f"k{i}" for i in range(5)},
            {f"k{i}" for i in range(3, 40)},
            {f"k{i}" for i in range(20, 70)},
        ]
        matrix, stats = dimsum_similarity_matrix(partitions, self.CONFIG)
        assert signature_calls == [3]
        expected, expected_stats = dimsum_similarity_matrix_scalar(
            partitions, self.CONFIG
        )
        assert np.array_equal(matrix, expected)
        assert stats == expected_stats
        # The large pair went through the estimate (a slot fraction),
        # not the sets (20/67).
        slots = self.CONFIG.num_hashes
        assert matrix[1, 2] in {matches / slots for matches in range(slots + 1)}
