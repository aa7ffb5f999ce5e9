"""Telemetry bus: schema round-trip, no-op guard, digests, conservation.

The heavier end-to-end properties (two-run digest equality, telemetry
on/off bit-identity of sim metrics) run one small experiment each.
"""

import dataclasses
import json
import math

import pytest

from repro.chaos.profiles import build_schedule
from repro.chaos.runtime import ChaosConfig
from repro.core.runner import run_experiment
from repro.errors import ObservabilityError
from repro.obs import instrument
from repro.obs.series import wan_bytes_carried
from repro.obs.telemetry import (
    EVENT_KINDS,
    NULL_TELEMETRY,
    SERVE_EVENT_KINDS,
    V1_EVENT_KINDS,
    V3_EVENT_KINDS,
    NullTelemetryBus,
    TelemetryBus,
    TelemetryEvent,
    iter_kind,
    load_jsonl,
    telemetry_digest,
    write_jsonl,
)
from repro.systems.base import SystemConfig
from repro.wan.presets import ec2_ten_sites
from repro.workloads import build_workload

SCALE = 0.15
QUERIES = 2


def run_instrumented(chaos_profile=None, **config_overrides):
    topology = ec2_ten_sites()
    chaos = None
    if chaos_profile is not None:
        chaos = ChaosConfig(
            faults=build_schedule(chaos_profile, topology, seed=13)
        )
    config = SystemConfig(seed=11, partition_records=8, **config_overrides)
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        result = run_experiment(
            "bohr",
            lambda: build_workload(
                "bigdata-aggregation", topology, seed=7, scale=SCALE
            ),
            topology,
            config=config,
            query_limit=QUERIES,
            chaos=chaos,
        )
    return bus, result


@pytest.fixture(scope="module")
def recorded():
    return run_instrumented()


class TestEventSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown telemetry"):
            TelemetryEvent(seq=0, kind="no-such-kind")

    def test_non_finite_time_rejected(self):
        with pytest.raises(ObservabilityError, match="finite"):
            TelemetryEvent(seq=0, kind="flow-start", t=float("inf"))

    def test_dict_round_trip(self):
        event = TelemetryEvent(
            seq=3, kind="flow-finish", t=1.5,
            attrs={"src": "tokyo", "num_bytes": 10.0, "wan": True},
        )
        assert TelemetryEvent.from_dict(event.to_dict()) == event

    def test_to_dict_sorts_attrs(self):
        event = TelemetryEvent(
            seq=0, kind="plan", attrs={"zeta": 1, "alpha": 2}
        )
        assert list(event.to_dict()["attrs"]) == ["alpha", "zeta"]

    @pytest.mark.parametrize(
        "record, match",
        [
            ({"seq": 0, "kind": "no-such-kind"}, "unknown telemetry"),
            ({"seq": 0, "kind": "flow-start", "t": float("nan")}, "finite"),
        ],
    )
    def test_from_dict_validates(self, record, match):
        with pytest.raises(ObservabilityError, match=match):
            TelemetryEvent.from_dict(record)

    def test_replace_revalidates_a_slot_event(self):
        event = TelemetryEvent(seq=0, kind="plan", t=1.0, attrs={"a": 1})
        assert dataclasses.replace(event, seq=4) == TelemetryEvent(
            seq=4, kind="plan", t=1.0, attrs={"a": 1}
        )
        with pytest.raises(ObservabilityError, match="unknown telemetry"):
            dataclasses.replace(event, kind="bogus")
        assert not hasattr(event, "__dict__")

    def test_iter_kind_validates(self):
        with pytest.raises(ObservabilityError, match="unknown telemetry kinds"):
            iter_kind([], "flow-start", "bogus")


class TestBus:
    def test_seq_monotonic_and_subscribers(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("query-start", t=0.0, dataset="d0")
        bus.emit("query-finish", t=2.0, dataset="d0", qct=2.0)
        assert [event.seq for event in bus.events] == [0, 1]
        assert seen == bus.events
        assert bus.counts_by_kind() == {"query-start": 1, "query-finish": 1}

    def test_events_are_the_validated_constructions_extended_in_place(self):
        bus = TelemetryBus()
        bus.emit("flow-start", t=0.5, src="a", dst="b", wan=True)
        bus.emit("plan")
        first = bus.events
        assert first == [
            TelemetryEvent(seq=0, kind="flow-start", t=0.5,
                           attrs={"src": "a", "dst": "b", "wan": True}),
            TelemetryEvent(seq=1, kind="plan"),
        ]
        bus.emit("flow-finish", t=2, src="a")
        again = bus.events
        assert again is first and len(again) == 3
        assert again[2] == TelemetryEvent(seq=2, kind="flow-finish", t=2, attrs={"src": "a"})
        assert all(a is b for a, b in zip(bus.events, again))

    def test_subscriber_sees_the_materialized_objects(self):
        bus = TelemetryBus()
        bus.emit("plan")
        seen = []
        bus.subscribe(seen.append)
        returned = [bus.emit("link-sample", t=float(t), site="a") for t in range(3)]
        assert seen == returned == bus.events[1:]
        assert all(a is b for a, b in zip(seen, bus.events[1:]))

    @pytest.mark.parametrize(
        "kind, t, match",
        [("no-such-kind", 0.0, "unknown telemetry"), ("plan", float("inf"), "finite")],
    )
    def test_emit_validates_what_events_will_skip(self, kind, t, match):
        bus = TelemetryBus()
        with pytest.raises(ObservabilityError, match=match):
            bus.emit(kind, t=t)
        assert bus.events == []

    def test_record_is_emit_with_the_callers_dict(self):
        bus, attrs = TelemetryBus(), {"site": "a", "dt": 0.5}
        bus.emit("link-sample", t=1.0, site="a", dt=0.5)
        assert bus.record("link-sample", 1.0, attrs) is None
        first, second = bus.events
        assert second.attrs is attrs and first.attrs == attrs
        assert (first.kind, first.t) == (second.kind, second.t)
        for kind, t, match in (("no-such-kind", 0.0, "unknown"), ("plan", math.nan, "finite")):
            with pytest.raises(ObservabilityError, match=match):
                bus.record(kind, t, {})
        assert len(bus.events) == 2

    def test_null_bus_records_nothing(self):
        NULL_TELEMETRY.emit("flow-start", t=0.0, src="a")
        NULL_TELEMETRY.record("flow-start", 0.0, {"src": "a"})
        NULL_TELEMETRY.subscribe(lambda event: None)
        with NULL_TELEMETRY.span("x", stage="query") as span:
            span.set(qct=1.0)
        assert NULL_TELEMETRY.events == []
        assert not NULL_TELEMETRY.enabled

    def test_stray_append_cannot_contaminate_other_readers(self):
        # R010 regression: events must be a fresh list per read, not a
        # class-level container shared by every null bus.
        NULL_TELEMETRY.events.append("garbage")
        assert NULL_TELEMETRY.events == []
        assert NullTelemetryBus().events == []

    def test_disabled_run_emits_zero_events(self):
        """The no-op guard: without a bus installed, hot paths emit nothing."""
        topology = ec2_ten_sites()
        with instrument.instrumented(telemetry=NULL_TELEMETRY) as obs:
            run_experiment(
                "bohr",
                lambda: build_workload(
                    "bigdata-aggregation", topology, seed=7, scale=SCALE
                ),
                topology,
                config=SystemConfig(seed=11, partition_records=8),
                query_limit=1,
            )
            assert obs.telemetry.events == []
        assert NULL_TELEMETRY.events == []


class TestJsonlArchive:
    def test_round_trip_exact(self, recorded, tmp_path):
        bus, _ = recorded
        path = str(tmp_path / "tele.jsonl")
        count = write_jsonl(bus, path)
        header, events = load_jsonl(path)
        assert count == len(bus.events)
        assert header["version"] == 4
        assert header["events"] == count
        assert events == bus.events
        assert telemetry_digest(events) == telemetry_digest(bus)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"telemetry": "repro.obs.telemetry", "version": 99, "events": 0}\n'
        )
        with pytest.raises(ObservabilityError, match="v99"):
            load_jsonl(str(path))

    @pytest.mark.parametrize(
        "version, kinds, extra",
        [
            (1, V1_EVENT_KINDS, []),
            (2, V1_EVENT_KINDS | SERVE_EVENT_KINDS,
             [("serve-queue", 0.5, {"tenant": "t0", "query": 0})]),
            (3, V1_EVENT_KINDS | SERVE_EVENT_KINDS | V3_EVENT_KINDS,
             [("serve-queue", 0.5, {"tenant": "t0", "query": 0}),
              ("queue-enter", 0.5, {"tenant": "t0", "query": 0})]),
        ],
    )
    def test_old_archives_load_and_render(
        self, recorded, tmp_path, version, kinds, extra
    ):
        """v1-v3 archives (no span events) load unchanged and still feed
        ``report`` and the span view."""
        from repro.obs.report_html import write_report
        from repro.obs.views import spans_from_events

        bus, _ = recorded
        records = [
            {"kind": event.kind, "t": event.t, "attrs": dict(event.attrs)}
            for event in bus.events
            if event.kind in kinds
        ] + [{"kind": kind, "t": t, "attrs": attrs} for kind, t, attrs in extra]
        path = tmp_path / f"v{version}.jsonl"
        lines = [
            {"telemetry": "repro.obs.telemetry", "version": version,
             "events": len(records)}
        ] + [dict(record, seq=seq) for seq, record in enumerate(records)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        header, events = load_jsonl(str(path))
        assert header["version"] == version
        assert len(events) == len(records)
        assert not iter_kind(events, "span-begin", "span-end")
        out = tmp_path / "report.html"
        write_report(events, str(out), title=f"v{version}", source=str(path))
        assert "Stage Gantt" in out.read_text()
        stages = {span.stage for span in spans_from_events(events)}
        assert {"map", "shuffle", "reduce"} <= stages

    def test_rejects_an_event_count_the_header_does_not_declare(self, tmp_path):
        # It used to load silently; critpath then reported 0 paths.
        path = tmp_path / "short.jsonl"
        path.write_text(
            '{"events": 3, "telemetry": "repro.obs.telemetry", "version": 4}\n'
            '{"kind": "plan", "seq": 0, "t": null}\n'
        )
        with pytest.raises(ObservabilityError) as raised:
            load_jsonl(str(path))
        assert str(raised.value) == f"{path}: header says 3 events, file holds 1"

    def test_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"span_id": 1}\n')
        with pytest.raises(ObservabilityError, match="header"):
            load_jsonl(str(path))


class TestDigest:
    def test_wall_attrs_excluded(self):
        fast = TelemetryEvent(
            seq=0, kind="plan", attrs={"scheme": "bohr", "lp_wall_seconds": 0.01}
        )
        slow = TelemetryEvent(
            seq=0, kind="plan", attrs={"scheme": "bohr", "lp_wall_seconds": 9.99}
        )
        assert telemetry_digest([fast]) == telemetry_digest([slow])

    def test_sim_content_changes_digest(self):
        a = TelemetryEvent(seq=0, kind="job-finish", t=1.0, attrs={"qct": 1.0})
        b = TelemetryEvent(seq=0, kind="job-finish", t=1.0, attrs={"qct": 2.0})
        assert telemetry_digest([a]) != telemetry_digest([b])

    def test_two_same_seed_runs_digest_identical(self):
        first, _ = run_instrumented()
        second, _ = run_instrumented()
        assert len(first.events) == len(second.events)
        assert telemetry_digest(first) == telemetry_digest(second)

    def test_two_same_seed_chaos_runs_digest_identical(self):
        first, _ = run_instrumented(chaos_profile="flaky-wan")
        second, _ = run_instrumented(chaos_profile="flaky-wan")
        assert telemetry_digest(first) == telemetry_digest(second)


class TestBitIdentity:
    def test_sim_metrics_identical_with_telemetry_on_vs_off(self):
        """Recording must be a pure observer of the simulation."""
        _, with_bus = run_instrumented()
        topology = ec2_ten_sites()
        without = run_experiment(
            "bohr",
            lambda: build_workload(
                "bigdata-aggregation", topology, seed=7, scale=SCALE
            ),
            topology,
            config=SystemConfig(seed=11, partition_records=8),
            query_limit=QUERIES,
        )
        assert [run.qct for run in with_bus.runs] == [
            run.qct for run in without.runs
        ]
        assert with_bus.mean_qct == without.mean_qct
        assert with_bus.prep.moved_bytes == without.prep.moved_bytes


class TestConservation:
    def test_link_samples_integrate_to_delivered_bytes(self, recorded):
        """used_bps × dt summed over uplinks equals delivered WAN bytes.

        Chaos-free run: no partial/failed attempts, so every sampled byte
        belongs to a finished WAN flow — the telemetry-side mirror of the
        sanitizer's byte-conservation invariant.
        """
        bus, _ = recorded
        finished = sum(
            float(event.attrs["num_bytes"])
            for event in iter_kind(bus.events, "flow-finish")
            if event.attrs.get("wan")
        )
        for direction in ("up", "down"):
            carried = wan_bytes_carried(bus.events, direction=direction)
            assert carried == pytest.approx(finished, rel=1e-6)

    def test_event_kinds_all_known(self, recorded):
        bus, _ = recorded
        assert set(bus.counts_by_kind()) <= EVENT_KINDS
