"""Fault schedule unit tests: events, lookups, and composition."""

import math

import pytest

from repro.chaos.schedule import (
    COMPUTE_KINDS,
    FAULT_KINDS,
    LINK_KINDS,
    FaultEvent,
    FaultSchedule,
    merge_schedules,
)
from repro.errors import FaultError


def degrade(site="a", start=0.0, end=10.0, severity=0.5):
    return FaultEvent("link-degrade", site, start, end, severity)


def blackout(site="a", start=0.0, end=10.0):
    return FaultEvent("link-blackout", site, start, end)


class TestFaultEvent:
    def test_kind_partition(self):
        assert set(LINK_KINDS) | set(COMPUTE_KINDS) == set(FAULT_KINDS)
        assert not set(LINK_KINDS) & set(COMPUTE_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent("meteor-strike", "a", 0.0, 1.0)

    def test_empty_site_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent("link-blackout", "", 0.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent("link-blackout", "a", -1.0, 1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent("link-blackout", "a", 5.0, 5.0)

    @pytest.mark.parametrize("severity", [0.0, 1.0, 1.5, -0.1])
    def test_degrade_severity_bounds(self, severity):
        with pytest.raises(FaultError):
            degrade(severity=severity)

    def test_straggler_below_one_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent("straggler", "a", 0.0, 1.0, severity=0.5)

    def test_task_failure_needs_integer_waves(self):
        with pytest.raises(FaultError):
            FaultEvent("task-failure", "a", 0.0, 1.0, severity=1.5)
        FaultEvent("task-failure", "a", 0.0, 1.0, severity=2.0)  # ok

    @pytest.mark.parametrize(
        "field, kind, start, end, severity",
        [
            ("start", "link-blackout", math.nan, 1.0, 0.0),
            ("end", "link-blackout", 0.0, math.nan, 0.0),
            ("severity", "straggler", 0.0, 1.0, math.nan),
            ("severity", "straggler", 0.0, 1.0, math.inf),
            ("severity", "task-failure", 0.0, 1.0, math.nan),
            ("severity", "task-failure", 0.0, 1.0, math.inf),
        ],
    )
    def test_non_finite_input_names_the_field(self, field, kind, start, end, severity):
        with pytest.raises(FaultError, match=f"fault {field} must be"):
            FaultEvent(kind, "a", start, end, severity=severity)

    def test_active_window_is_half_open(self):
        event = blackout(start=2.0, end=7.0)
        assert not event.active_at(1.999)
        assert event.active_at(2.0)
        assert event.active_at(6.999)
        assert not event.active_at(7.0)

    def test_infinite_end_allowed(self):
        event = FaultEvent("site-outage", "a", 3.0, math.inf)
        assert event.active_at(1e9)

    def test_link_multiplier(self):
        assert degrade(severity=0.25).link_multiplier() == 0.25
        assert blackout().link_multiplier() == 0.0

    def test_round_trips_to_dict(self):
        event = degrade(severity=0.3)
        assert event.to_dict() == {
            "kind": "link-degrade",
            "site": "a",
            "start": 0.0,
            "end": 10.0,
            "severity": 0.3,
        }


class TestScheduleLinkLookups:
    def test_multipliers_compose(self):
        schedule = FaultSchedule(
            events=(
                degrade(start=0.0, end=10.0, severity=0.5),
                degrade(start=5.0, end=15.0, severity=0.4),
            )
        )
        assert schedule.link_multiplier("a", 2.0) == 0.5
        assert schedule.link_multiplier("a", 7.0) == pytest.approx(0.2)
        assert schedule.link_multiplier("a", 12.0) == 0.4
        assert schedule.link_multiplier("a", 20.0) == 1.0
        assert schedule.link_multiplier("other", 7.0) == 1.0

    def test_blackout_wins(self):
        schedule = FaultSchedule(
            events=(degrade(severity=0.9), blackout(start=2.0, end=4.0))
        )
        assert schedule.link_multiplier("a", 3.0) == 0.0
        assert schedule.link_multiplier("a", 5.0) == 0.9

    def test_next_change_after(self):
        schedule = FaultSchedule(
            events=(blackout(start=2.0, end=7.0), degrade(start=10.0, end=12.0))
        )
        assert schedule.next_change_after(0.0) == 2.0
        assert schedule.next_change_after(2.0) == 7.0
        assert schedule.next_change_after(7.0) == 10.0
        assert schedule.next_change_after(11.0) == 12.0
        assert schedule.next_change_after(12.0) is None

    def test_infinite_end_is_not_a_change_point(self):
        schedule = FaultSchedule(
            events=(FaultEvent("site-outage", "a", 5.0, math.inf),)
        )
        assert schedule.next_change_after(0.0) == 5.0
        assert schedule.next_change_after(5.0) is None

    def test_compute_kinds_do_not_touch_links(self):
        schedule = FaultSchedule(
            events=(FaultEvent("straggler", "a", 0.0, 100.0, severity=3.0),)
        )
        assert schedule.link_multiplier("a", 1.0) == 1.0
        assert schedule.next_change_after(0.0) is None


class TestScheduleComputeAndOutages:
    def test_compute_slowdown_multiplies(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent("straggler", "a", 0.0, 10.0, severity=2.0),
                FaultEvent("straggler", "a", 0.0, 10.0, severity=3.0),
                FaultEvent("straggler", "b", 0.0, 10.0, severity=4.0),
            )
        )
        assert schedule.compute_slowdown("a") == 6.0
        assert schedule.compute_slowdown("b") == 4.0
        assert schedule.compute_slowdown("c") == 1.0

    def test_task_failure_waves_sum(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent("task-failure", "a", 0.0, 10.0, severity=1.0),
                FaultEvent("task-failure", "a", 0.0, 10.0, severity=2.0),
            )
        )
        assert schedule.task_failure_waves("a") == 3
        assert schedule.task_failure_waves("b") == 0

    def test_outage_helpers(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent("site-outage", "b", 5.0, math.inf),
                blackout(site="a"),
            )
        )
        assert not schedule.site_dead_at("b", 4.9)
        assert schedule.site_dead_at("b", 5.0)
        assert schedule.site_dead_at("b", 1e12)
        assert not schedule.site_dead_at("a", 5.0)  # blackout != outage
        assert [e.site for e in schedule.outages_starting_in(0.0, 10.0)] == ["b"]
        assert schedule.outages_starting_in(6.0, 10.0) == []


class TestScheduleReporting:
    def test_empty(self):
        schedule = FaultSchedule.empty()
        assert schedule.is_empty
        assert schedule.link_multiplier("a", 0.0) == 1.0
        assert "no faults" in schedule.describe()

    def test_counts_sites_and_describe(self):
        schedule = FaultSchedule(
            events=(blackout(site="a"), degrade(site="b"), degrade(site="b")),
            name="demo",
        )
        assert schedule.counts_by_kind() == {
            "link-blackout": 1,
            "link-degrade": 2,
        }
        assert schedule.sites() == ["a", "b"]
        assert "demo" in schedule.describe()

    def test_merge(self):
        left = FaultSchedule(events=(blackout(),), name="left")
        right = FaultSchedule(events=(degrade(site="b"),), name="right")
        merged = merge_schedules(left, right)
        assert merged.name == "left+right"
        assert len(merged.events) == 2
        assert merged.sites() == ["a", "b"]

    def test_to_dict_round_trip(self):
        schedule = FaultSchedule(events=(blackout(),), name="demo", seed=3)
        payload = schedule.to_dict()
        rebuilt = FaultSchedule(
            events=tuple(FaultEvent(**e) for e in payload["events"]),
            name=payload["name"],
            seed=payload["seed"],
        )
        assert rebuilt == schedule
