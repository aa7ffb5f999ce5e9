"""The map-side ``combine`` ``repro.engine.combiner`` ran before it
folded into locals.

Kept as the oracle for :func:`combine`: every record adds its bytes to
``output.map_output_bytes`` and one to ``output.map_output_records`` on
the output itself, and a merged record's size is ``max``-ed in place.
The shipped code folds the bytes in a local, counts the records once
and compares sizes; the parity property holds record order, counts,
sizes and the byte fold to this code.
"""

from typing import Iterable, Sequence

from repro.engine.combiner import CombinedOutput, CombinedRecord
from repro.errors import EngineError
from repro.types import Record, project_keys


def reference_combine(
    records: Iterable[Record],
    key_indices: Sequence[int],
    reduction_ratio: float,
) -> CombinedOutput:
    """Per-record reference implementation of :func:`combine`.

    Each input record maps to one intermediate record of size
    ``record.size_bytes * reduction_ratio``; same-key intermediates
    merge, in first-appearance order.  ``map_output_bytes`` is a strict
    left fold over the records.
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
