"""Corrupt files fail typed: a telemetry archive or a BENCH report with
one bit flipped, or cut short, either still loads or raises a
:class:`~repro.errors.ReproError` subclass — which the CLI prints as one
``error:`` line, exit 2 — never a bare traceback.  A flip that sets a
byte's high bit makes the file invalid UTF-8; each reader's pinned
example is one.
"""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.schema import SCHEMA_VERSION, load_report
from repro.errors import ReproError
from repro.obs.telemetry import TelemetryBus, load_jsonl, write_jsonl


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
