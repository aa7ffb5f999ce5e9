#!/usr/bin/env python3
"""Measure where the engine's columnar kernels start to pay.

Prints the two tables DESIGN.md ("Columnar hot paths") quotes:

* ``combine``: the scalar loop (``combine_scalar``) against the NumPy
  grouped aggregation, by record count and distinct-key share — the
  evidence for ``repro.engine.combiner._COLUMNAR_MIN_RECORDS``;
* the shuffle-volume fold of ``MapReduceEngine._plan_shuffle``: the
  per-key dict fold that ships against the masked-``cumsum`` NumPy fold
  that was removed (kept below, only so the measurement can be redone).

Run it when the NumPy or Python version changes, or before touching the
threshold:  ``PYTHONPATH=src python tools/crossover.py``.  Registered
nowhere: not a test, not a bench case, imported by nothing.
"""

from __future__ import annotations

import random
import timeit
from typing import Callable, Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.engine import combiner
from repro.engine.shuffle import ReduceTaskMap
from repro.types import Record

RECORD_COUNTS = (8, 16, 32, 64, 128, 256, 512, 1024, 4096)
#: Distinct keys as a share of records: heavy collisions, skewed, distinct.
KEY_SHARES = (0.05, 0.25, 1.0)
FOLD_KEYS = (8, 64, 1024, 4096)


def best_us(call: Callable[[], object], budget_calls: int) -> float:
    """Best-of-five mean microseconds per call."""
    number = max(1, budget_calls)
    return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e6


def records_for(count: int, share: float, rng: random.Random) -> List[Record]:
    pool = [f"k{index}" for index in range(max(1, round(count * share)))]
    return [
        Record((rng.choice(pool), rng.randint(0, 9)), size_bytes=rng.randint(1, 10**6))
        for _ in range(count)
    ]


def combine_table() -> None:
    shipped = combiner._COLUMNAR_MIN_RECORDS
    print(f"combine: scalar / columnar, us per call (shipped threshold {shipped})")
    print("records  " + "  ".join(f"{f'{share:.0%} distinct':>20}" for share in KEY_SHARES))
    rng = random.Random(11)
    for count in RECORD_COUNTS:
        cells = []
        for share in KEY_SHARES:
            records = records_for(count, share, rng)
            scalar = best_us(
                lambda: combiner.combine_scalar(records, [0], 0.5), 20_000 // count
            )
            # Threshold 1: every call goes columnar.
            with mock.patch.object(combiner, "_COLUMNAR_MIN_RECORDS", 1):
                columnar = best_us(
                    lambda: combiner.combine(records, [0], 0.5), 20_000 // count
                )
            cells.append(f"{scalar:9.1f} /{columnar:9.1f}")
        print(f"{count:7d}  " + "  ".join(cells))


def dict_fold(keys, sizes, table, src, volume) -> None:
    for key, size in zip(keys, sizes):
        edge = (src, table[key])
        volume[edge] = volume.get(edge, 0.0) + size


def numpy_fold(keys, sizes, table, src, volume) -> None:
    """The removed batch fold: destination codes, masked ``cumsum``."""
    dst_codes: Dict[str, int] = {}
    codes = np.empty(len(keys), dtype=np.intp)
    for position, key in enumerate(keys):
        codes[position] = dst_codes.setdefault(table[key], len(dst_codes))
    size_array = np.asarray(sizes, dtype=np.float64)
    for dst, code in dst_codes.items():
        volume[(src, dst)] = float(np.cumsum(size_array[codes == code])[-1])


def fold_table() -> None:
    print("\nshuffle-volume fold, 10 destination sites: dict / numpy, us per source site")
    rng = random.Random(11)
    task_map = ReduceTaskMap.from_fractions(
        {f"site-{index}": 0.1 for index in range(10)}, 200
    )
    for count in FOLD_KEYS:
        keys: List[Tuple] = [(f"k{index}",) for index in range(count)]
        sizes = [rng.random() * 1e6 for _ in keys]
        table = task_map.routing_table(keys)
        timings = [
            best_us(lambda: fold(keys, sizes, table, "site-0", {}), 20_000 // count)
            for fold in (dict_fold, numpy_fold)
        ]
        print(f"{count:7d} keys  {timings[0]:9.1f} /{timings[1]:9.1f}")


if __name__ == "__main__":
    combine_table()
    fold_table()
