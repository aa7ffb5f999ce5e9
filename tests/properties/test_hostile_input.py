"""Corrupt files fail typed: a telemetry archive or a BENCH report with
one bit flipped, or cut short, either still loads or raises a
:class:`~repro.errors.ReproError` subclass — which the CLI prints as one
``error:`` line, exit 2 — never a bare traceback.  A flip that sets a
byte's high bit makes the file invalid UTF-8; each reader's pinned
example is one.

Non-finite numbers fail typed too: a NaN or infinite entry anywhere in
k-means data raises :class:`~repro.errors.SimilarityError`, and a NaN or
infinite cube measure (or an int beyond float range) raises
:class:`~repro.errors.CubeError` naming the attribute, where one would
otherwise be summed into a cell.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.schema import SCHEMA_VERSION, load_report
from repro.errors import CubeError, ReproError, SimilarityError
from repro.obs.telemetry import TelemetryBus, load_jsonl, write_jsonl
from repro.olap.cube import OLAPCube
from repro.similarity.kmeans import kmeans
from repro.types import Record, Schema


def _archive() -> bytes:
    bus = TelemetryBus()
    bus.emit("fault-window", t=1.0, fault="site-outage", site="b",
             start=1.0, end=None, severity=0.0)
    with bus.span("query", stage="query", dataset="d0") as query:
        bus.emit("stage-finish", t=1.5, stage="map", site="a", job="job-0",
                 start=0.0)
        bus.emit("flow-finish", t=4.0, src="a", dst="b", num_bytes=1000,
                 tag="job-0", wan=True, start=1.5)
        bus.emit("job-finish", t=4.0, job="job-0", qct=4.0)
        query.set(qct=4.0)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "tele.jsonl")
        write_jsonl(bus, path)
        with open(path, "rb") as handle:
            return handle.read()


ARCHIVE = _archive()
REPORT = json.dumps(
    {
        "schema_version": SCHEMA_VERSION, "suite": "smoke", "seed": 11,
        "benchmarks": {
            "case-a": {
                "sim": {"qct": 1.5}, "wall": {"lp": 0.1},
                "duration_seconds": {"median": 1.0, "samples": [1.0]},
            }
        },
    },
    indent=2, sort_keys=True,
).encode()


def corruptions(data: bytes):
    """``("flip", byte, bit)`` or ``("cut", length)`` over ``data``."""
    flips = st.tuples(
        st.just("flip"), st.integers(0, len(data) - 1), st.integers(0, 7)
    )
    return flips | st.tuples(st.just("cut"), st.integers(0, len(data) - 1))


def corrupt(data: bytes, how) -> bytes:
    if how[0] == "cut":
        return data[: how[1]]
    _, position, bit = how
    return data[:position] + bytes([data[position] ^ (1 << bit)]) + data[position + 1:]


def loads_or_fails_typed(reader, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "corrupt")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            reader(path)
        except ReproError:
            pass


@settings(max_examples=300, deadline=None)
@given(how=corruptions(ARCHIVE))
@example(how=("flip", len(ARCHIVE) - 3, 7))  # invalid UTF-8 in the last event
def test_a_corrupt_archive_loads_or_fails_typed(how):
    loads_or_fails_typed(load_jsonl, corrupt(ARCHIVE, how))


@settings(max_examples=300, deadline=None)
@given(how=corruptions(REPORT))
@example(how=("flip", 0, 7))  # 0xFB: invalid UTF-8 in the first byte
def test_a_corrupt_bench_report_loads_or_fails_typed(how):
    loads_or_fails_typed(load_report, corrupt(REPORT, how))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=2, max_size=9
    ),
    position=st.tuples(st.integers(0, 8), st.integers(0, 2)),
    bad=NON_FINITE,
    k=st.integers(1, 4),
)
@example(rows=[[0.0, 1.0, 0.0]] * 4, position=(2, 1), bad=math.nan, k=2)
@example(rows=[[0.0, 1.0, 0.0]] * 4, position=(0, 0), bad=math.inf, k=2)
def test_kmeans_rejects_non_finite_data(rows, position, bad, k):
    row, column = position[0] % len(rows), position[1]
    rows = [list(values) for values in rows]
    rows[row][column] = bad
    message = f"must be finite: row {row}, column {column} is {bad}"
    with pytest.raises(SimilarityError, match=message):
        kmeans(rows, k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_a_cube_rejects_a_non_finite_measure(bad):
    schema = Schema.of("region", "revenue", kinds={"revenue": "numeric"})
    good, hostile = Record(("eu", 2.0)), Record(("eu", bad))
    with pytest.raises(CubeError, match="'revenue' must be finite"):
        OLAPCube.from_records([good, hostile], schema, ["region"], "revenue")
    cube = OLAPCube.from_records([good], schema, ["region"], "revenue")
    with pytest.raises(CubeError, match="'revenue' must be finite"):
        cube.insert(hostile, schema)
    assert cube.cells[("eu",)].measure_sum == 2.0


def test_kmeans_rejects_data_whose_distances_overflow():
    # Finite, but every squared distance to a far point is inf.
    with pytest.raises(SimilarityError, match="overflow"):
        kmeans([[0.0], [1e200], [-1e200]], 2)
