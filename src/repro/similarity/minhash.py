"""MinHash signatures for Jaccard estimation.

Used two ways: inside the Jaccard-modified DIMSUM (§6) — records collide
when any of their m hash values match — and by :class:`MinHashLSH` to
prune dissimilar pairs cheaply.

:meth:`MinHasher.signatures` is the batched hot path: every distinct
item is hashed once across all sets, the m×n permuted-hash matrices are
computed as one concatenated matrix, and per-set minima come from
``np.minimum.reduceat`` — bit-identical to calling
:meth:`MinHasher.signature` per set (the retained scalar reference).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import SimilarityError
from repro.util.rng import derive_rng

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1
#: Signature slot value for empty sets — outside the real min-hash range
#: [0, 2^32 - 1], so an empty set never collides with a non-empty one.
_EMPTY_SENTINEL = _MAX_HASH + 1
#: Column budget per batched permuted-hash matrix: bounds peak memory at
#: num_hashes × 65536 × 8 bytes while keeping per-chunk overhead small.
_BATCH_COLUMNS = 65536


def _stable_hash(item: object) -> int:
    """Deterministic 64-bit hash of an item (run-to-run stable)."""
    digest = hashlib.blake2b(repr(item).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@lru_cache(maxsize=1 << 20)
def _masked_hash(text: str) -> int:
    """``_stable_hash`` of a repr string, masked to the hash range.

    The value is a pure function of the repr, so one process-wide cache
    serves every :class:`MinHasher` instance and every batched call.
    """
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MAX_HASH


def _mod_mersenne(values: np.ndarray) -> np.ndarray:
    """``values % (2^61 - 1)`` without uint64 division (exact).

    For p = 2^61 - 1 and any y < 2^64: y ≡ (y & p) + (y >> 61) (mod p),
    and that sum is at most p + 7, so one conditional subtraction
    finishes the reduction.  Bit-identical to the ``%`` operator the
    scalar reference uses, several times faster on large matrices.
    """
    prime = np.uint64(_MERSENNE_PRIME)
    reduced = (values & prime) + (values >> np.uint64(61))
    np.subtract(reduced, prime, out=reduced, where=reduced >= prime)
    return reduced


@dataclass(frozen=True)
class MinHashSignature:
    """The m minimum hash values of one set."""

    values: Tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        """True when this is the empty-set sentinel signature."""
        return bool(self.values) and self.values[0] == _EMPTY_SENTINEL

    def estimate_jaccard(self, other: "MinHashSignature") -> float:
        """Fraction of matching signature slots ≈ Jaccard similarity.

        Empty sets share no elements with anything, including each
        other: if either side is the empty-set sentinel the estimate is
        0.0 (two sentinels are slot-identical, which would otherwise
        report ∅ vs ∅ as perfectly similar).
        """
        if len(self.values) != len(other.values):
            raise SimilarityError(
                f"signature lengths differ: {len(self.values)} vs {len(other.values)}"
            )
        if self.is_empty or other.is_empty:
            return 0.0
        matches = sum(
            1 for mine, theirs in zip(self.values, other.values) if mine == theirs
        )
        return matches / len(self.values)

    def collides_with(self, other: "MinHashSignature") -> bool:
        """True when any of the m hash slots agree (the DIMSUM map test).

        Empty-set sentinels never collide — not with real signatures
        (the sentinel is outside the hash range) and not with each other.
        """
        if self.is_empty or other.is_empty:
            return False
        return any(
            mine == theirs for mine, theirs in zip(self.values, other.values)
        )


class MinHasher:
    """A family of m universal hash functions h(x) = (a·x + b) mod p."""

    def __init__(self, num_hashes: int = 64, seed: int = 7) -> None:
        if num_hashes < 1:
            raise SimilarityError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        rng = derive_rng(seed, "minhash")
        self._a = rng.integers(1, _MERSENNE_PRIME, size=num_hashes, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=num_hashes, dtype=np.uint64)

    def _item_hashes(self, items: Iterable[object]) -> np.ndarray:
        """Masked item hashes in the scalar path's array layout.

        Deduplication and ordering mirror :meth:`signature` exactly:
        sorting distinct reprs equals ``sorted(set(items), key=repr)``
        because the hash depends only on the repr.  Digests come from
        the process-wide ``_masked_hash`` cache.
        """
        texts = sorted(map(repr, set(items)))
        return np.fromiter(
            map(_masked_hash, texts), dtype=np.uint64, count=len(texts)
        )

    def signature(self, items: Iterable[object]) -> MinHashSignature:
        """MinHash signature of a set of items (scalar reference path).

        The signature of an empty set is all ``_EMPTY_SENTINEL`` values,
        which never collide with real hashes.
        """
        # Sorted items: the min over permuted hashes is order-independent,
        # but fixing the array layout keeps signatures byte-identical
        # across Python hash-seed and version changes.
        hashes = np.array(
            [
                _stable_hash(item) & _MAX_HASH
                for item in sorted(set(items), key=repr)
            ],
            dtype=np.uint64,
        )
        if hashes.size == 0:
            return MinHashSignature(tuple([_EMPTY_SENTINEL] * self.num_hashes))
        # (m, n) matrix of permuted hashes, min over items per hash fn.
        permuted = (
            self._a[:, None] * hashes[None, :] + self._b[:, None]
        ) % _MERSENNE_PRIME
        mins = (permuted % (_MAX_HASH + 1)).min(axis=1)
        return MinHashSignature(tuple(int(value) for value in mins))

    def signatures(self, sets: Sequence[Iterable[object]]) -> List[MinHashSignature]:
        """Signatures for many sets in one batched computation.

        All sets' item hashes form one concatenated vector; the m×total
        permuted-hash matrix is computed in memory-bounded column chunks
        and per-set minima are taken with ``np.minimum.reduceat``.
        uint64 products wrap mod 2^64 exactly as in the scalar path, so
        every signature is bit-identical to :meth:`signature`.
        """
        per_set = [self._item_hashes(items) for items in sets]
        empty = MinHashSignature(tuple([_EMPTY_SENTINEL] * self.num_hashes))
        results: List[MinHashSignature] = [empty] * len(per_set)

        chunk_sets: List[int] = []
        chunk_parts: List[np.ndarray] = []
        chunk_columns = 0

        def flush() -> None:
            nonlocal chunk_sets, chunk_parts, chunk_columns
            if not chunk_sets:
                return
            hashes = np.concatenate(chunk_parts)
            starts = np.cumsum([0] + [part.size for part in chunk_parts[:-1]])
            # uint64 multiply-add wraps mod 2^64 exactly like the scalar
            # path; the Mersenne reduction and the power-of-two mask are
            # exact rewrites of the reference's two % operators.
            permuted = self._a[:, None] * hashes[None, :]
            permuted += self._b[:, None]
            permuted = _mod_mersenne(permuted)
            permuted &= np.uint64(_MAX_HASH)
            mins = np.minimum.reduceat(permuted, starts, axis=1)
            columns = mins.T.tolist()  # python ints, one row per set
            for column, set_index in enumerate(chunk_sets):
                results[set_index] = MinHashSignature(tuple(columns[column]))
            chunk_sets, chunk_parts, chunk_columns = [], [], 0

        for set_index, hashes in enumerate(per_set):
            if hashes.size == 0:
                continue  # sentinel already in place
            if chunk_columns and chunk_columns + hashes.size > _BATCH_COLUMNS:
                flush()
            chunk_sets.append(set_index)
            chunk_parts.append(hashes)
            chunk_columns += hashes.size
        flush()
        return results
