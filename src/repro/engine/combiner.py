"""Map-side combiner.

The combiner merges map-output records with identical keys inside one
executor, emitting a single intermediate record per distinct key.  Every
intermediate record is ``reduction_ratio`` times the size of the input
records it came from (the map projects/transforms the record), and
merging k same-key records keeps one representative-size record — the
word-count semantics of Figure 1.

:func:`combine` is a per-record loop: no call of any benchmark workload
or bench suite carries more than 123 records (seed 11: five instances of
each perfbench workload, 101 k calls, and ``repro bench --suite full``,
48 k calls of at most 57), below where a NumPy grouped aggregation
starts to pay (DESIGN.md "Measured crossovers").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from repro.errors import EngineError
from repro.types import Key, Record, project_keys


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


def combine(
    records: Iterable[Record],
    key_indices: Sequence[int],
    reduction_ratio: float,
) -> CombinedOutput:
    """Run map + combine over one executor's records.

    Each input record maps to one intermediate record of size
    ``record.size_bytes * reduction_ratio``; same-key intermediates
    merge, in first-appearance order.  ``map_output_bytes`` is a strict
    left fold over the records, kept in a local until the output is
    built.
    """
    if not 0.0 < reduction_ratio <= 1.0:
        raise EngineError(f"reduction_ratio must be in (0, 1], got {reduction_ratio}")
    if not isinstance(records, list):
        records = list(records)
    merged: Dict[Key, CombinedRecord] = {}
    map_output_bytes = 0.0
    for record, key in zip(records, project_keys(records, key_indices)):
        intermediate_bytes = record.size_bytes * reduction_ratio
        map_output_bytes += intermediate_bytes
        existing = merged.get(key)
        if existing is None:
            merged[key] = CombinedRecord(key, 1, intermediate_bytes)
        else:
            existing.merged_count += 1
            # max() keeps the earlier of two equal sizes; so does this.
            if intermediate_bytes > existing.size_bytes:
                existing.size_bytes = intermediate_bytes
    return CombinedOutput(merged, map_output_bytes, len(records))
