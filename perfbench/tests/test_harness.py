"""The protocol's arithmetic on a stand-in workload: reference-speed
scaling, going round the instances, the time box, the digest pairs."""

import itertools
import types

import pytest

from perfbench import harness, speed
from perfbench.workloads import Outcome


class Units:
    """Stands in for a workload: instant units with scripted outcomes."""

    name = "units"
    seed = 1
    size = {}
    limit_seconds = 1.0

    def __init__(self, drift_on_revisit=False):
        self.visits = {}
        self.drift_on_revisit = drift_on_revisit

    def setup(self, instance):
        return instance

    def unit(self, instance, clock):
        visit = self.visits[instance] = self.visits.get(instance, 0) + 1
        qct = 1.0 + instance
        if self.drift_on_revisit and instance == 2 and visit > 1:
            qct += 0.5
        return Outcome(qcts=[qct], wan_bytes=8.0, offered=1, within_limit=1,
                       operations=3, plan_shuffle=[1.0])

    def check(self, outcome):
        return []

    def check_once(self, first):
        return []

    def layer_facts(self, outcomes):
        return {}


@pytest.fixture
def steady_host(monkeypatch):
    """The spin loop reads exactly the reference, instantly."""
    monkeypatch.setattr(speed, "spin", lambda: speed.REFERENCE_SECONDS)


def test_a_phase_is_scaled_by_the_readings_either_side(monkeypatch):
    readings = iter([0.1, 0.2, 0.4, 0.1])
    monkeypatch.setattr(speed, "spin", lambda: next(readings))
    meter = speed.Speedometer()
    # Host at 1.5x the reference time on average: 3 s measured is 2 s.
    assert meter.scaled(3.0) == pytest.approx(3.0 * 0.1 * 2 / (0.1 + 0.2))
    # The closing reading opens the next phase.
    assert meter.scaled(3.0) == pytest.approx(3.0 * 0.1 * 2 / (0.2 + 0.4))
    meter.mark()
    assert meter.readings == [0.1, 0.2, 0.4, 0.1]


def test_measure_goes_round_the_instances_and_never_stops_before_five(steady_host):
    repetitions = harness.measure(Units(), 0.0, 5, speed.Speedometer())
    assert [rep.instance for rep in repetitions] == [0, 1, 2, 3, 4]
    assert all(rep.outcome is not None for rep in repetitions)


def test_measure_stops_when_the_next_repetition_would_overrun(steady_host, monkeypatch):
    # A clock that advances one second per reading: a repetition reads it
    # four times (set-up and unit, begin and end) plus twice in the loop.
    ticks = itertools.count()
    monkeypatch.setattr(
        harness, "time", types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    )
    repetitions = harness.measure(Units(), 60.0, 5, speed.Speedometer())
    assert [rep.instance for rep in repetitions][:7] == [0, 1, 2, 3, 4, 0, 1]
    assert 5 < len(repetitions) < harness.MAX_REPETITIONS
    # Outcomes past the first round are dropped, their digests kept.
    assert all(rep.outcome is None for rep in repetitions[5:])
    assert repetitions[5].digest == repetitions[0].digest


def test_wall_is_the_mean_of_instance_medians_and_sim_pools_five(steady_host, monkeypatch):
    walls = iter([9.0] + [1.0, 2.0, 3.0, 4.0, 5.0, 3.0, 2.0])  # warm-up first
    real = harness.repeat_once

    def scripted(workload, instance, meter, tracer=None):
        rep = real(workload, instance, meter, tracer)
        rep.wall_seconds = rep.raw_wall_seconds = next(walls)
        return rep

    monkeypatch.setattr(harness, "repeat_once", scripted)
    monkeypatch.setattr(
        harness, "measure",
        lambda workload, seconds, instances, meter: [
            scripted(workload, n % instances, meter) for n in range(7)
        ],
    )
    result = harness.run_workload(Units(), 1.0, False, 0.25)
    # Instance medians: (1+3)/2, (2+2)/2, 3, 4, 5.
    assert result.end_to_end["wall_s"] == pytest.approx((2 + 2 + 3 + 4 + 5) / 5)
    assert result.end_to_end["sim_qct_mean_s"] == pytest.approx(3.0)
    assert result.failures == []
    assert result.attempted == 7 * 3


def test_an_instance_that_comes_round_changed_fails_the_workload(steady_host, monkeypatch):
    monkeypatch.setattr(
        harness, "measure",
        lambda workload, seconds, instances, meter: [
            harness.repeat_once(workload, n % instances, meter) for n in range(8)
        ],
    )
    result = harness.run_workload(Units(drift_on_revisit=True), 1.0, False, 0.25)
    assert len(result.failures) == 1
    assert "instance 2 came round with another sim digest" in result.failures[0]
