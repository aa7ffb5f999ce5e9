"""The archive as the one trace format: span round-trip through it, and
Chrome trace events rendered from its events, fault windows included."""

import json

import pytest

from repro.cli import _build_inputs, build_parser, run_scheme
from repro.errors import ObservabilityError
from repro.obs import TelemetryBus, instrument, spans_from_events
from repro.obs.export import (
    chrome_trace_events,
    export_chrome,
    validate_chrome_events,
)
from repro.obs.series import fault_windows
from repro.obs.telemetry import load_jsonl, write_jsonl
from tests.obs.reference_export import reference_chrome_trace_events


def build_bus(faults: bool = False) -> TelemetryBus:
    bus = TelemetryBus()
    if faults:  # as a chaos controller emits its schedule, before any work
        bus.emit("fault-window", t=1.0, fault="link-blackout", site="a",
                 start=1.0, end=3.0, severity=0.0)
        bus.emit("fault-window", t=2.0, fault="site-outage", site="b",
                 start=2.0, end=None, severity=0.0)
    with bus.span("experiment", stage="experiment", scheme="bohr"):
        with bus.span("query", stage="query", dataset="d0") as query:
            bus.emit("stage-finish", t=1.5, stage="map", site="a",
                     job="job-0", start=0.0)
            bus.emit("flow-finish", t=4.0, src="a", dst="b", num_bytes=1000,
                     tag="job-0", wan=True, start=1.5)
            bus.emit("job-finish", t=4.0, job="job-0", qct=4.0)
            query.set(qct=4.0)
    return bus


def build_events(faults: bool = False):
    return build_bus(faults).events


def reloaded(bus: TelemetryBus, path) -> list:
    write_jsonl(bus, str(path))
    return load_jsonl(str(path))[1]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        bus = build_bus()
        spans = spans_from_events(bus.events)
        loaded = spans_from_events(reloaded(bus, tmp_path / "tele.jsonl"))
        assert len(loaded) == len(spans)
        for original, restored in zip(spans, loaded):
            assert restored.span_id == original.span_id
            assert restored.parent_id == original.parent_id
            assert restored.name == original.name
            assert restored.stage == original.stage
            assert restored.sim_start == original.sim_start
            assert restored.sim_end == original.sim_end
            assert restored.attrs == original.attrs
            assert restored.wall_start == pytest.approx(original.wall_start)
            assert restored.wall_end == pytest.approx(original.wall_end)

    def test_telemetry_archive_loads_as_the_same_spans(self, tmp_path):
        """``inspect`` reads a ``--telemetry`` archive and derives the
        spans from its events: the live view's spans, exactly."""
        bus = build_bus()
        events = reloaded(bus, tmp_path / "tele.jsonl")
        assert spans_from_events(events) == spans_from_events(bus.events)

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "tele.jsonl"
        write_jsonl(build_bus(), str(path))
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        header, *records = map(json.loads, lines)
        assert header["events"] == len(records) == 7
        for record in records:
            assert "seq" in record and "kind" in record

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"events": 1, "telemetry": "repro.obs.telemetry", "version": 4}\n'
            "not json\n"
        )
        with pytest.raises(ObservabilityError, match=":2: invalid JSON"):
            load_jsonl(str(path))

    def test_a_span_trace_is_no_longer_read(self, tmp_path):
        """The span-per-line format ``--trace`` used to write has no
        header: it is refused, by name, and ``inspect`` exits 2."""
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "query", "span_id": 0}\n')
        with pytest.raises(ObservabilityError, match="span traces are no longer read"):
            load_jsonl(str(path))
        assert main(["inspect", str(path)]) == 2


class TestChromeExport:
    def test_events_validate(self):
        events = chrome_trace_events(build_events())
        validate_chrome_events(events)
        complete = [e for e in events if e["ph"] == "X"]
        # 4 wall spans (experiment/query live on the wall clock; the job's
        # spans are instantaneous wall events too) + 2 simulated events.
        assert len(complete) >= 5
        pids = {e["pid"] for e in complete}
        assert pids == {1, 2}  # wall-clock and simulated-clock processes

    def test_sim_events_use_sim_timestamps(self):
        events = chrome_trace_events(build_events())
        sim = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        by_name = {e["name"]: e for e in sim}
        assert by_name["map@a"]["ts"] == 0.0
        assert by_name["map@a"]["dur"] == pytest.approx(1.5e6)
        assert by_name["shuffle a->b"]["ts"] == pytest.approx(1.5e6)

    def test_metadata_names_processes(self):
        events = chrome_trace_events(build_events())
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert {"wall-clock", "simulated-clock"} <= names

    def test_export_chrome_document_loads(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(build_events(), str(path))
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        validate_chrome_events(document["traceEvents"])

    def test_chrome_round_trip_from_jsonl(self, tmp_path):
        """Archive → reloaded events → Chrome events (the inspect
        --chrome path) equals exporting the live stream directly."""
        bus = build_bus(faults=True)
        from_disk = chrome_trace_events(reloaded(bus, tmp_path / "tele.jsonl"))
        assert from_disk == chrome_trace_events(bus.events)

    def test_validation_catches_missing_fields(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_events([{"name": "x", "ph": "X", "pid": 1}])
        with pytest.raises(ObservabilityError):
            validate_chrome_events(
                [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]
            )


class TestFaultAnnotations:
    """Chaos fault windows render inline on the simulated-clock process."""

    def test_finite_window_is_duration_event(self):
        events = chrome_trace_events(build_events(faults=True))
        validate_chrome_events(events)
        blackout = [e for e in events if e["name"] == "fault:link-blackout"]
        assert len(blackout) == 1
        assert blackout[0]["ph"] == "X"
        assert blackout[0]["ts"] == pytest.approx(1.0e6)
        assert blackout[0]["dur"] == pytest.approx(2.0e6)
        assert blackout[0]["cat"] == "fault"
        assert blackout[0]["pid"] == 2  # simulated-clock process

    def test_unbounded_window_is_instant_event(self):
        events = chrome_trace_events(build_events(faults=True))
        outage = [e for e in events if e["name"] == "fault:site-outage"]
        assert len(outage) == 1
        assert outage[0]["ph"] == "i"
        assert "dur" not in outage[0]

    def test_fault_shares_site_lane_with_spans(self):
        """A fault on a site that has spans lands in that site's lane."""
        events = chrome_trace_events(build_events(faults=True))
        span_lane = {
            e["tid"] for e in events
            if e.get("ph") == "X" and e["pid"] == 2
            and e.get("args", {}).get("site") == "a" and e.get("cat") != "fault"
        }
        fault_lane = {
            e["tid"] for e in events if e["name"] == "fault:link-blackout"
        }
        assert fault_lane == span_lane

    def test_export_chrome_accepts_faults(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(build_events(faults=True), str(path))
        document = json.loads(path.read_text())
        validate_chrome_events(document["traceEvents"])
        assert any(
            event.get("cat") == "fault" for event in document["traceEvents"]
        )

    def test_no_faults_is_unchanged(self):
        """Fault windows only append: the span events are the same with
        them and without them, and without them no fault event is drawn."""

        def sim_clock(events):  # the two buses' wall readings differ
            return [
                {k: v for k, v in e.items() if e["pid"] == 2 or k not in ("ts", "dur")}
                for e in events
            ]

        plain = chrome_trace_events(build_events())
        faulted = chrome_trace_events(build_events(faults=True))
        assert not any(event.get("cat") == "fault" for event in plain)
        assert sim_clock(faulted[: len(plain)]) == sim_clock(plain)
        assert len(faulted) == len(plain) + 2  # the two windows; both sites have lanes

    def test_each_window_is_drawn_once(self):
        """Every controller of a run emits the whole schedule; a window
        the stream holds twice is one window."""
        bus = build_bus(faults=True)
        once = chrome_trace_events(bus.events)
        bus.emit("fault-window", t=1.0, fault="link-blackout", site="a",
                 start=1.0, end=3.0, severity=0.0)
        assert len(fault_windows(bus.events)) == 2
        assert chrome_trace_events(bus.events) == once

    def test_validation_rejects_instant_without_ts(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_events(
                [{"name": "x", "ph": "i", "pid": 1, "tid": 1}]
            )


def _json(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scheme", "bohr"],
        ["compare", "--schemes", "iridium-c,bohr"],
    ],
    ids=["run", "compare"],
)
def test_archive_chrome_equals_the_live_schedule_document(argv, tmp_path):
    """A chaos ``run`` and a two-scheme chaos ``compare``: the Chrome
    document of the reloaded archive is JSON-equal to the one ``run``/
    ``compare --chrome-trace`` used to write — live spans, fault lanes
    from the schedule rebuilt from the flags — with each window once,
    though the compare archive holds one copy per scheme."""
    args = build_parser().parse_args(argv + [
        "--workload", "bigdata-aggregation", "--queries", "2",
        "--chaos", "flaky-wan",
    ])
    schemes = [args.scheme] if argv[0] == "run" else args.schemes.split(",")
    with instrument.instrumented() as obs:
        for scheme in schemes:
            run_scheme(scheme, args)
    live = obs.telemetry.events
    schedule = _build_inputs(args)[2].faults
    archived = reloaded(obs.telemetry, tmp_path / "tele.jsonl")

    document = chrome_trace_events(archived)
    validate_chrome_events(document)
    assert _json(document) == _json(
        reference_chrome_trace_events(spans_from_events(live), faults=schedule)
    )
    raw = [event for event in archived if event.kind == "fault-window"]
    drawn = [event for event in document if event.get("cat") == "fault"]
    assert len(raw) == len(schemes) * len(schedule.events)
    assert len(drawn) == len(fault_windows(archived)) == len(schedule.events)
