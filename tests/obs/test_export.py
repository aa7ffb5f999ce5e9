"""Trace export: JSONL round-trip and Chrome trace-event structure."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import TelemetryBus, spans_from_events
from repro.obs.export import (
    chrome_trace_events,
    export_chrome,
    export_jsonl,
    load_jsonl,
    validate_chrome_events,
)
from repro.obs.telemetry import write_jsonl


def build_bus() -> TelemetryBus:
    bus = TelemetryBus()
    with bus.span("experiment", stage="experiment", scheme="bohr"):
        with bus.span("query", stage="query", dataset="d0") as query:
            bus.emit("stage-finish", t=1.5, stage="map", site="a",
                     job="job-0", start=0.0)
            bus.emit("flow-finish", t=4.0, src="a", dst="b", num_bytes=1000,
                     tag="job-0", wan=True, start=1.5)
            bus.emit("job-finish", t=4.0, job="job-0", qct=4.0)
            query.set(qct=4.0)
    return bus


def build_trace():
    return spans_from_events(build_bus().events)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        spans = build_trace()
        path = tmp_path / "trace.jsonl"
        export_jsonl(spans, str(path))
        loaded = load_jsonl(str(path))
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
        """``inspect`` reads a ``--telemetry`` archive directly: the
        header line is recognised and the spans derived from the events."""
        bus = build_bus()
        path = tmp_path / "tele.jsonl"
        write_jsonl(bus, str(path))
        assert load_jsonl(str(path)) == spans_from_events(bus.events)

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(build_trace(), str(path))
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert "span_id" in record and "name" in record

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": 0, "name": "ok"}\nnot json\n')
        with pytest.raises(ObservabilityError):
            load_jsonl(str(path))


class TestChromeExport:
    def test_events_validate(self):
        events = chrome_trace_events(build_trace())
        validate_chrome_events(events)
        complete = [e for e in events if e["ph"] == "X"]
        # 3 wall spans (experiment/query live on the wall clock; record()'d
        # spans are instantaneous wall events too) + 3 simulated events.
        assert len(complete) >= 5
        pids = {e["pid"] for e in complete}
        assert pids == {1, 2}  # wall-clock and simulated-clock processes

    def test_sim_events_use_sim_timestamps(self):
        events = chrome_trace_events(build_trace())
        sim = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        by_name = {e["name"]: e for e in sim}
        assert by_name["map@a"]["ts"] == 0.0
        assert by_name["map@a"]["dur"] == pytest.approx(1.5e6)
        assert by_name["shuffle a->b"]["ts"] == pytest.approx(1.5e6)

    def test_metadata_names_processes(self):
        events = chrome_trace_events(build_trace())
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert {"wall-clock", "simulated-clock"} <= names

    def test_export_chrome_document_loads(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(build_trace(), str(path))
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        validate_chrome_events(document["traceEvents"])

    def test_chrome_round_trip_from_jsonl(self, tmp_path):
        """JSONL trace → loaded spans → Chrome events (the inspect
        --chrome path) must equal exporting the live span view directly."""
        spans = build_trace()
        jsonl = tmp_path / "trace.jsonl"
        export_jsonl(spans, str(jsonl))
        from_disk = chrome_trace_events(load_jsonl(str(jsonl)))
        live = chrome_trace_events(spans)
        assert len(from_disk) == len(live)
        for disk_event, live_event in zip(from_disk, live):
            assert disk_event["name"] == live_event["name"]
            assert disk_event["pid"] == live_event["pid"]
            assert disk_event.get("ts", 0.0) == pytest.approx(
                live_event.get("ts", 0.0)
            )

    def test_validation_catches_missing_fields(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_events([{"name": "x", "ph": "X", "pid": 1}])
        with pytest.raises(ObservabilityError):
            validate_chrome_events(
                [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]
            )


class TestFaultAnnotations:
    """Chaos fault windows render inline on the simulated-clock process."""

    @staticmethod
    def _schedule():
        import math

        from repro.chaos.schedule import FaultEvent, FaultSchedule

        return FaultSchedule(
            events=[
                FaultEvent(kind="link-blackout", site="a", start=1.0, end=3.0),
                FaultEvent(
                    kind="site-outage", site="b", start=2.0, end=math.inf
                ),
            ]
        )

    def test_finite_window_is_duration_event(self):
        events = chrome_trace_events(build_trace(), faults=self._schedule())
        validate_chrome_events(events)
        blackout = [e for e in events if e["name"] == "fault:link-blackout"]
        assert len(blackout) == 1
        assert blackout[0]["ph"] == "X"
        assert blackout[0]["ts"] == pytest.approx(1.0e6)
        assert blackout[0]["dur"] == pytest.approx(2.0e6)
        assert blackout[0]["cat"] == "fault"
        assert blackout[0]["pid"] == 2  # simulated-clock process

    def test_unbounded_window_is_instant_event(self):
        events = chrome_trace_events(build_trace(), faults=self._schedule())
        outage = [e for e in events if e["name"] == "fault:site-outage"]
        assert len(outage) == 1
        assert outage[0]["ph"] == "i"
        assert "dur" not in outage[0]

    def test_fault_shares_site_lane_with_spans(self):
        """A fault on a site that has spans lands in that site's lane."""
        events = chrome_trace_events(build_trace(), faults=self._schedule())
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
        export_chrome(build_trace(), str(path), faults=self._schedule())
        document = json.loads(path.read_text())
        validate_chrome_events(document["traceEvents"])
        assert any(
            event.get("cat") == "fault" for event in document["traceEvents"]
        )

    def test_no_faults_is_unchanged(self):
        spans = build_trace()
        assert chrome_trace_events(spans) == chrome_trace_events(
            spans, faults=None
        )

    def test_validation_rejects_instant_without_ts(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_events(
                [{"name": "x", "ph": "i", "pid": 1, "tid": 1}]
            )
