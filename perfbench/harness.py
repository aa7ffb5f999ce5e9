"""The measurement protocol of one worker process.

One warm-up repetition, then measured repetitions for ``--seconds``
seconds, set-up included (never fewer than five).  Every repetition
generates its inputs (set-up, timed separately), collects garbage, and
runs the timed unit.  A seed has five input *instances*; repetition ``n``
runs instance ``n mod 5``, so every run times the same five units,
however many repetitions the time budget allowed, and an instance that
comes round again must reproduce its sim digest or the workload fails
(the warm-up runs instance 0, so that pair always exists).

Host times are reported at reference speed (:mod:`perfbench.speed`): the
spin loop runs between every two phases and each set-up and each unit is
scaled by the readings either side of it.

``wall_s`` is the mean over the five instances of each instance's median
timed unit.  Instances differ in size by 5-9%, so a median taken across
them would add that spread to the host's noise; taken within them it
does not, and the mean over all five is the same work in every run of a
seed.  Set-up is the same work for
every instance: the median over all repetitions.  Sim-clock metrics pool
the five instances, so they are exact for a seed on any machine.

End-to-end numbers come from these untraced repetitions, with the
program's own instrumentation at its no-op default.  ``--trace 1`` then
runs instance 0 with the layer tracer installed, for the per-layer
numbers, between two untraced runs of the same instance: their mean is
what the tracing overhead is measured against.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import OUT_DIR
from perfbench.layers import TARGETS, layer_metrics
from perfbench.speed import Speedometer
from perfbench.tracer import LayerTracer
from perfbench.workloads import Outcome, Workload

#: Input instances of a seed: the units every run times and pools.
INSTANCES = 5
MAX_REPETITIONS = 50
#: Percentiles a tail may be read at, each needing ten samples beyond it.
_TAIL_PERCENTILES = (99, 95, 90, 80)


class Clock:
    """Times one unit; lets the unit exclude work and label requests."""

    def __init__(self, tracer: Optional[LayerTracer] = None) -> None:
        self._tracer = tracer
        self._excluded = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._excluded = 0.0
        self._started = time.perf_counter()

    def stop(self) -> Tuple[float, Tuple[float, float]]:
        """``(timed seconds, perf_counter window)`` since :meth:`start`."""
        finished = time.perf_counter()
        return finished - self._started - self._excluded, (self._started, finished)

    @contextmanager
    def untimed(self) -> Iterator[None]:
        """Work inside is neither timed nor traced."""
        began = time.perf_counter()
        try:
            if self._tracer is None:
                yield
            else:
                with self._tracer.paused():
                    yield
        finally:
            self._excluded += time.perf_counter() - began

    @contextmanager
    def request(self, label: str) -> Iterator[None]:
        """Spans opened inside share ``label`` as their request id."""
        if self._tracer is None:
            yield
        else:
            with self._tracer.labelled(label):
                yield


@dataclass
class Repetition:
    instance: int
    #: Both at reference speed; ``raw_wall_seconds`` is as measured.
    setup_seconds: float
    wall_seconds: float
    raw_wall_seconds: float
    window: Tuple[float, float]
    #: Dropped once the instance has come round, so the peak memory of a
    #: run does not grow with how many repetitions fit.
    outcome: Optional[Outcome]
    digest: str
    operations: int


def repeat_once(
    workload: Workload,
    instance: int,
    meter: Speedometer,
    tracer: Optional[LayerTracer] = None,
) -> Repetition:
    """Fresh inputs, a garbage collection, then the timed unit."""
    clock = Clock(tracer)
    gc.collect()
    began = time.perf_counter()
    with clock.request("setup"):
        state = workload.setup(instance)
    setup_seconds = meter.scaled(time.perf_counter() - began)
    gc.collect()
    clock.start()
    with clock.request("unit"):
        outcome = workload.unit(state, clock)
    raw_seconds, window = clock.stop()
    return Repetition(
        instance, setup_seconds, meter.scaled(raw_seconds), raw_seconds, window,
        outcome, outcome.digest(), outcome.operations,
    )


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median with min/quartiles/count alongside."""
    if len(samples) < 2:
        only = samples[0]
        return {"median": only, "min": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": median, "min": min(samples), "q1": q1, "q3": q3,
        "n": len(samples),
    }


def tail_percentile(count: int) -> int:
    """The highest of p80/p90/p95/p99 with ten samples beyond it.

    Sim latencies are exact for a seed, so the ten-sample rule guards
    against nothing below fifty samples; those read p80.
    """
    for percentile in _TAIL_PERCENTILES:
        if count * (100 - percentile) >= 1000:  # integers: 100 samples read p90
            return percentile
    return _TAIL_PERCENTILES[-1]


def percentile_of(values: Sequence[float], percentile: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (percentile / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def sim_metrics(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """The sim-clock end-to-end metrics, pooled over input instances.

    Latencies pool their samples; WAN bytes are the mean per instance,
    so the figure reads as one unit's traffic.
    """
    qcts = [qct for outcome in outcomes for qct in outcome.qcts]
    return {
        "sim_qct_mean_s": sum(qcts) / len(qcts),
        "sim_qct_tail_s": percentile_of(qcts, tail_percentile(len(qcts))),
        "sim_wan_bytes": sum(o.wan_bytes for o in outcomes) / len(outcomes),
        "sim_slo_goodput_frac": (
            sum(o.within_limit for o in outcomes)
            / sum(o.offered for o in outcomes)
        ),
    }


@dataclass
class WorkerResult:
    """Everything one worker measured."""

    end_to_end: Dict[str, float]
    per_layer: Optional[Dict[str, float]]
    attempted: int
    failures: List[str]
    detail: Dict[str, Any]


def measure(
    workload: Workload, seconds: float, instances: int, meter: Speedometer
) -> List[Repetition]:
    """Repetitions round the instances until the next would overrun
    ``seconds`` (set-up included); every instance at least once."""
    repetitions: List[Repetition] = []
    began = time.perf_counter()
    while len(repetitions) < MAX_REPETITIONS:
        repetitions.append(
            repeat_once(workload, len(repetitions) % instances, meter)
        )
        if len(repetitions) > instances:
            repetitions[-1].outcome = None
        elapsed = time.perf_counter() - began
        if (
            len(repetitions) >= instances
            and elapsed + elapsed / len(repetitions) > seconds
        ):
            break
    return repetitions


def run_workload(
    workload: Workload,
    seconds: float,
    trace: bool,
    import_seconds: float,
    quick: bool = False,
) -> WorkerResult:
    """Run the protocol for one workload in this process."""
    failures: List[str] = []
    instances = 1 if quick else INSTANCES
    meter = Speedometer()
    # Warm-up: lazy imports and digest caches; also a determinism pair.
    warm_digest = None if quick else repeat_once(workload, 0, meter).digest
    repetitions = measure(workload, 0.0 if quick else seconds, instances, meter)
    calib_seconds = statistics.median(meter.readings)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pooled = [rep.outcome for rep in repetitions[:instances]]
    first = pooled[0]
    digests = [rep.digest for rep in repetitions[:instances]]
    if warm_digest is not None and warm_digest != digests[0]:
        failures.append(
            "two runs of instance 0 gave different sim digests: "
            f"{warm_digest} != {digests[0]}"
        )
    for rep in repetitions[instances:]:
        if rep.digest != digests[rep.instance]:
            failures.append(
                f"instance {rep.instance} came round with another sim digest: "
                f"{rep.digest} != {digests[rep.instance]}"
            )
    for instance, outcome in enumerate(pooled):
        failures.extend(
            f"instance {instance}: {failure}" for failure in workload.check(outcome)
        )
    failures.extend(workload.check_once(first))

    def mean_of_instance_medians(seconds) -> float:
        return statistics.fmean(
            statistics.median(
                seconds(rep) for rep in repetitions if rep.instance == instance
            )
            for instance in range(instances)
        )

    walls = summarize([rep.wall_seconds for rep in repetitions])
    setups = summarize([rep.setup_seconds for rep in repetitions])
    end_to_end = {
        "setup_s": import_seconds + setups["median"],
        "wall_s": mean_of_instance_medians(lambda rep: rep.wall_seconds),
        "peak_rss_mib": peak_rss_mib,
        **sim_metrics(pooled),
    }
    qct_samples = sum(len(outcome.qcts) for outcome in pooled)
    detail: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "sizes": workload.size,
        "limit_seconds": workload.limit_seconds,
        "instances_pooled": len(pooled),
        "tail_percentile": tail_percentile(qct_samples),
        "qct_samples": qct_samples,
        # Over all repetitions, so the quartiles span the instances'
        # sizes as well as the host's noise.
        "wall_s": {
            **walls,
            # What wall_s would read without the scaling.
            "raw": mean_of_instance_medians(lambda rep: rep.raw_wall_seconds),
        },
        "setup_s": {**setups, "import_s": import_seconds},
        "sim_digests": digests,
        "calib_s": calib_seconds,
        "operations_per_repetition": first.operations,
        "failures": failures,
    }

    per_layer = None
    if trace:
        # The traced run sits between two untraced runs of its instance:
        # their mean is what the tracing overhead is measured against.
        meter.mark()
        before = repeat_once(workload, 0, meter)
        tracer = LayerTracer(TARGETS).install()
        try:
            traced = repeat_once(workload, 0, meter, tracer)
        finally:
            tracer.uninstall()
        after = repeat_once(workload, 0, meter)
        untraced = (before.wall_seconds + after.wall_seconds) / 2.0
        if traced.digest != digests[0]:
            failures.append("tracing changed the sim digest of instance 0")
        facts = dict(traced.outcome.facts)
        facts["plan_shuffle_s"] = statistics.fmean(traced.outcome.plan_shuffle)
        facts.update(workload.layer_facts(pooled))
        per_layer = layer_metrics(
            tracer,
            traced.window,
            facts,
            {
                "trace_overhead_frac": traced.wall_seconds / untraced - 1.0,
                "wall_iqr_frac": (walls["q3"] - walls["q1"]) / walls["median"],
                "calib_s": calib_seconds,
            },
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
        detail["traced_wall_s"] = traced.raw_wall_seconds

    attempted = sum(rep.operations for rep in repetitions)
    return WorkerResult(end_to_end, per_layer, attempted, failures, detail)
