"""The ``repro report`` dashboard: panels render from a recorded run."""

import re
import xml.etree.ElementTree as ET

import pytest

from repro.obs.report_html import render_report, write_report
from repro.obs.telemetry import TelemetryEvent
from repro.serve import ServeConfig

from tests.obs.test_critpath import run_recorded
from tests.obs.test_telemetry import run_instrumented


@pytest.fixture(scope="module")
def chaos_events():
    bus, _ = run_instrumented(chaos_profile="havoc")
    return bus.events


@pytest.fixture(scope="module")
def page(chaos_events):
    return render_report(chaos_events, title="test run", source="tele.jsonl")


class TestDashboard:
    def test_all_panels_present(self, page):
        assert "Per-link utilization" in page
        assert "Stage Gantt" in page
        assert "Bandwidth-estimator error" in page
        assert "Delivered vs. abandoned WAN bytes" in page
        assert page.count("<svg") >= 3

    def test_self_contained_static_html(self, page):
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        assert "NaN" not in page and "Infinity" not in page

    def test_svgs_are_well_formed(self, page):
        for svg in re.findall(r"<svg.*?</svg>", page, re.S):
            ET.fromstring(svg)  # raises on malformed markup

    def test_fault_overlays_annotated(self, page):
        # The havoc profile injects faults; the dashboard labels them.
        assert "fault" in page.lower()
        assert "⚠" in page

    def test_dark_mode_styles_present(self, page):
        assert "prefers-color-scheme: dark" in page

    def test_tables_behind_details(self, page):
        assert page.count("<details>") >= 3
        assert "Data table" in page

    def test_title_escaped(self):
        page = render_report([], title="<b>x&y</b>")
        assert "<b>x&y</b>" not in page
        assert "&lt;b&gt;x&amp;y&lt;/b&gt;" in page

    def test_write_report(self, chaos_events, tmp_path):
        path = tmp_path / "report.html"
        write_report(chaos_events, str(path), title="t")
        assert path.read_text().startswith("<!DOCTYPE html>")


def queries_tile(page):
    return re.search(
        r'Queries</div><div class="tile-value">([^<]*)</div>', page
    ).group(1)


class TestServeArchive:
    def test_queries_tile_counts_served_and_shed(self):
        # One slot and a one-deep queue under a burst: most arrivals shed.
        bus, report = run_recorded(ServeConfig(
            seed=11, num_tenants=2, num_queries=10, arrival_rate=20.0,
            max_inflight=1, max_inflight_per_tenant=1, queue_depth=1,
            cache_capacity=2, map_slots_per_site=1,
        ))
        assert report.completed and report.shed
        page = render_report(bus.events)
        assert queries_tile(page) == (
            f"{len(report.completed)} ({report.shed} shed)"
        )

    def test_batch_tile_counts_finished_and_aborted(self):
        events = [
            TelemetryEvent(seq=0, kind="query-finish", t=1.0,
                           attrs={"dataset": "d0", "qct": 1.0}),
            TelemetryEvent(seq=1, kind="query-abort", t=2.0,
                           attrs={"dataset": "d1"}),
        ]
        assert queries_tile(render_report(events)) == "1 (1 aborted)"


class TestEmptyStream:
    def test_renders_placeholders(self):
        page = render_report([])
        assert "No link-sample events" in page
        assert "No stage-finish events" in page

    def test_single_event_stream(self):
        events = [
            TelemetryEvent(seq=0, kind="query-finish", t=1.0,
                           attrs={"dataset": "d0", "qct": 1.0}),
        ]
        page = render_report(events)
        assert "query-finish" in page
