"""Map-side combiner.

The combiner merges map-output records with identical keys inside one
executor, emitting a single intermediate record per distinct key.  Every
intermediate record is ``reduction_ratio`` times the size of the input
records it came from (the map projects/transforms the record), and
merging k same-key records keeps one representative-size record — the
word-count semantics of Figure 1.

Two implementations share one contract: :func:`combine_scalar` is the
per-record loop and :func:`combine` switches to a columnar path (NumPy
grouped aggregation) from ``_COLUMNAR_MIN_RECORDS`` records up.  Their
outputs are bit-identical — same record-dict insertion order, same float
accumulation order (``map_output_bytes`` is a strict left fold, which
``np.cumsum`` reproduces exactly), same per-key counts and max
representative sizes — and the parity suite holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.errors import EngineError
from repro.types import Key, Record, project_keys

#: Measured crossover (``tools/crossover.py``, table in DESIGN.md): the
#: scalar loop wins 1.3-4x up to 64 records, ties at 128, and the NumPy
#: path wins 5-25% from 256 up when keys repeat (never when all are
#: distinct).  Serving-scale calls (8-72 records) all take the loop.
_COLUMNAR_MIN_RECORDS = 256


@dataclass
class CombinedRecord:
    """One combined intermediate record: a key plus merged statistics."""

    key: Key
    merged_count: int
    size_bytes: float

    def merge(self, other: "CombinedRecord") -> None:
        if other.key != self.key:
            raise EngineError(f"cannot merge keys {self.key} and {other.key}")
        self.merged_count += other.merged_count
        # Merging same-key records keeps one record; retain the larger
        # representative size (values aggregate in place).
        self.size_bytes = max(self.size_bytes, other.size_bytes)


@dataclass
class CombinedOutput:
    """All combined intermediate records of one executor (or one site)."""

    records: Dict[Key, CombinedRecord] = field(default_factory=dict)
    map_output_bytes: float = 0.0
    map_output_records: int = 0

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> float:
        return sum(record.size_bytes for record in self.records.values())

    @property
    def combine_savings(self) -> float:
        """Fraction of map-output bytes eliminated by combining."""
        if self.map_output_bytes <= 0:
            return 0.0
        return 1.0 - self.total_bytes / self.map_output_bytes

    def absorb(self, other: "CombinedOutput") -> None:
        """Merge another combined output into this one (same-key records
        collapse again) — used to aggregate executor outputs when they
        pass through a common local aggregation point."""
        for key, record in other.records.items():
            existing = self.records.get(key)
            if existing is None:
                self.records[key] = CombinedRecord(
                    key=record.key,
                    merged_count=record.merged_count,
                    size_bytes=record.size_bytes,
                )
            else:
                existing.merge(record)
        self.map_output_bytes += other.map_output_bytes
        self.map_output_records += other.map_output_records


def combine_scalar(
    records: Iterable[Record],
    key_indices: Sequence[int],
    reduction_ratio: float,
) -> CombinedOutput:
    """Per-record implementation of :func:`combine`.

    What :func:`combine` runs below the columnar crossover, and the
    parity suite's reference: its semantics are the contract the
    columnar path must reproduce bit-for-bit.
    """
    if not 0.0 < reduction_ratio <= 1.0:
        raise EngineError(f"reduction_ratio must be in (0, 1], got {reduction_ratio}")
    if not isinstance(records, list):
        records = list(records)
    output = CombinedOutput()
    for record, key in zip(records, project_keys(records, key_indices)):
        intermediate_bytes = record.size_bytes * reduction_ratio
        output.map_output_bytes += intermediate_bytes
        output.map_output_records += 1
        existing = output.records.get(key)
        if existing is None:
            output.records[key] = CombinedRecord(
                key=key, merged_count=1, size_bytes=intermediate_bytes
            )
        else:
            existing.merged_count += 1
            existing.size_bytes = max(existing.size_bytes, intermediate_bytes)
    return output


def combine(
    records: Iterable[Record],
    key_indices: Sequence[int],
    reduction_ratio: float,
) -> CombinedOutput:
    """Run map + combine over one executor's records.

    Each input record maps to one intermediate record of size
    ``record.size_bytes * reduction_ratio``; same-key intermediates merge.
    Small inputs take :func:`combine_scalar`; from the crossover up
    aggregation is hash-bucketed and vectorized: one pass assigns every
    distinct key a dense group id in first-appearance order, then NumPy
    grouped reductions produce merged counts (``np.bincount``) and max
    representative sizes (stable sort + ``np.maximum.reduceat``).  The
    record dict is built in first-appearance order and every float
    matches the scalar fold exactly (sizes are elementwise products; the
    total is a sequential ``np.cumsum`` left fold).
    """
    if not 0.0 < reduction_ratio <= 1.0:
        raise EngineError(f"reduction_ratio must be in (0, 1], got {reduction_ratio}")
    if not isinstance(records, list):
        records = list(records)
    count = len(records)
    if count < _COLUMNAR_MIN_RECORDS:
        return combine_scalar(records, key_indices, reduction_ratio)

    sizes = np.fromiter(
        (record.size_bytes for record in records), dtype=np.float64, count=count
    )
    intermediate = sizes * reduction_ratio

    # Dense group ids in first-appearance order: the dict doubles as the
    # key table, so the output records dict preserves the scalar path's
    # insertion order for free.
    group_of: Dict[Key, int] = {}
    new_group = group_of.setdefault
    keys = project_keys(records, key_indices)
    group_ids = np.fromiter(
        (new_group(key, len(group_of)) for key in keys),
        dtype=np.intp,
        count=count,
    )
    num_groups = len(group_of)

    merged_counts = np.bincount(group_ids, minlength=num_groups)
    if num_groups == count:
        # All keys distinct: no grouping needed, sizes pass through.
        max_sizes = intermediate
    else:
        order = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[order]
        boundaries = np.empty(num_groups, dtype=np.intp)
        boundaries[0] = 0
        boundaries[1:] = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        max_sizes = np.maximum.reduceat(intermediate[order], boundaries)

    output = CombinedOutput()
    output.map_output_records = count
    # np.cumsum is a strict sequential left fold, so this equals the
    # scalar loop's `total += x` accumulation bit-for-bit.
    output.map_output_bytes = float(np.cumsum(intermediate)[-1])
    counts_list = merged_counts.tolist()
    sizes_list = max_sizes.tolist()
    output.records = {
        key: CombinedRecord(
            key=key, merged_count=counts_list[group], size_bytes=sizes_list[group]
        )
        for key, group in group_of.items()
    }
    return output
