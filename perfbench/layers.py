"""The per-layer trace: which ``repro`` functions are wrapped, and how
spans and boundary counts become the ``per_layer`` metrics of
``BENCHMARK.json``.

Layers are the ``repro`` subpackages.  :data:`TARGETS` is the complete
surface the trace depends on; ``perfbench/README.md`` lists it so a
refactor knows which names to keep callable.

Two readings of the same trace:

* ``<layer>.<name>_s`` / ``_calls`` are *total* seconds and call counts
  of one wrapped function over the whole traced repetition, set-up
  included (on ``serve-*`` the plan is made during set-up).
* ``layer.<layer>_self_s`` is the layer's *self* time inside the timed
  unit only — durations minus what child spans cover — so the layer
  shares of one workload add up to its traced wall time.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Sequence

from perfbench.tracer import LayerTracer, Span, Target

#: Layers that can hold self time inside a timed unit.  ``workloads``
#: (input generation) is traced too, but only ever runs during set-up.
LAYERS = (
    "olap", "similarity", "placement", "query", "engine",
    "wan", "core", "serve", "chaos", "obs",
)


def _add(counters: Dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0.0) + amount


def _count_workload(counters, args, kwargs, workload) -> None:
    _add(counters, "workloads.records", sum(
        len(records)
        for dataset in workload.catalog
        for records in dataset.shards.values()
    ))
    _add(counters, "workloads.queries", len(workload.queries))


def _count_cube(counters, args, kwargs, cube_set) -> None:
    _add(counters, "olap.cells", cube_set.base.num_cells)


def _count_checks(counters, args, kwargs, results) -> None:
    _add(counters, "similarity.checks", len(results))


def _count_dimsum(counters, args, kwargs, result) -> None:
    stats = result[1]
    _add(counters, "similarity.dimsum_pairs_examined", stats.pairs_examined)
    _add(counters, "similarity.dimsum_pairs_total", stats.pairs_total)


def _count_minhash(counters, args, kwargs, signatures) -> None:
    _add(counters, "similarity.minhash_sets", len(signatures))


def _count_joint(counters, args, kwargs, decision) -> None:
    _add(counters, "placement.joint_rounds", decision.iterations)


def _count_movement(counters, args, kwargs, report) -> None:
    _add(counters, "placement.moved_bytes", report.total_moved_bytes)
    _add(counters, "chaos.lost_bytes", report.abandoned_bytes)


def _count_combine(counters, args, kwargs, output) -> None:
    _add(counters, "engine.combine_records_in", output.map_output_records)
    _add(counters, "engine.combine_records_out", output.num_records)


def _count_complete(counters, args, kwargs, job) -> None:
    _add(counters, "chaos.lost_bytes", job.total_lost_bytes)


def _count_advance(counters, args, kwargs, finished) -> None:
    _add(counters, "wan.failed_transfers", sum(1 for flow in finished if flow.failed))


def _count_submit(counters, args, kwargs, result) -> None:
    transfers = args[1] if len(args) > 1 else kwargs["transfers"]
    _add(counters, "wan.flows", len(transfers))


def _count_dynamic(counters, args, kwargs, result) -> None:
    _add(counters, "chaos.aborted", result.aborted_queries)
    _add(counters, "chaos.fault_replans", result.fault_replans)


def _count_serve(counters, args, kwargs, report) -> None:
    executed = [query for query in report.queries if query.status == "executed"]
    _add(counters, "serve.arrivals", len(report.queries))
    _add(counters, "serve.executed", len(executed))
    _add(counters, "serve.cached", len(report.completed) - len(executed))
    _add(counters, "serve.shed", report.shed)
    _add(counters, "serve.cache_hits", report.cache_hits)
    _add(counters, "serve.cache_lookups", report.cache_hits + report.cache_misses)
    _add(counters, "serve.cache_evictions", report.cache_evictions)
    _add(counters, "serve.queue_wait_sim", sum(
        query.admit - query.arrival for query in executed
    ))
    _add(counters, "serve.slot_wait_sim", sum(
        query.start - query.admit for query in executed
    ))


def _count_invalidate(counters, args, kwargs, dropped) -> None:
    _add(counters, "serve.invalidations", dropped)


def _count_retry(counters, args, kwargs, outcome) -> None:
    _add(counters, "chaos.retries", outcome.retries)


def _count_critpath(counters, args, kwargs, report) -> None:
    events = args[0] if args else kwargs["events"]
    _add(counters, "obs.events", len(events))


def _count_export(counters, args, kwargs, written) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    _add(counters, "obs.archive_bytes", os.path.getsize(path))


#: Every function the trace wraps: (layer, span name, where it lives).
TARGETS: Sequence[Target] = (
    Target("workloads", "gen", "repro.workloads.tpcds:tpcds_workload", _count_workload),
    Target("workloads", "gen", "repro.workloads.facebook:facebook_workload", _count_workload),
    Target("olap", "cube_build", "repro.olap.dimension_cube:DimensionCubeSet.build", _count_cube),
    Target("similarity", "probe_build", "repro.similarity.probes:ProbeBuilder.build"),
    Target("similarity", "check", "repro.similarity.checker:SimilarityChecker.check_against_sites", _count_checks),
    Target("similarity", "dimsum", "repro.similarity.dimsum:dimsum_similarity_matrix", _count_dimsum),
    Target("similarity", "minhash", "repro.similarity.minhash:MinHasher.signatures", _count_minhash),
    Target("placement", "joint", "repro.placement.joint:JointPlanner.plan", _count_joint),
    Target("placement", "iridium", "repro.placement.iridium:IridiumPlanner.plan"),
    Target("placement", "lp_solve", "repro.placement.solver:solve_lp"),
    Target("placement", "movement", "repro.placement.plan:execute_plan", _count_movement),
    Target("query", "compile", "repro.query.compiler:compile_query"),
    Target("engine", "run", "repro.engine.job:MapReduceEngine.run"),
    Target("engine", "plan", "repro.engine.job:MapReduceEngine.plan_job"),
    Target("engine", "complete", "repro.engine.job:MapReduceEngine.complete_job", _count_complete),
    Target("engine", "combine", "repro.engine.combiner:combine", _count_combine),
    Target("engine", "route", "repro.engine.shuffle:ReduceTaskMap.routing_table"),
    Target("engine", "assign", "repro.engine.assignment:assign_partitions"),
    Target("wan", "simulate", "repro.wan.transfer:TransferScheduler.simulate"),
    Target("wan", "advance", "repro.wan.transfer:WanSession.advance", _count_advance),
    Target("wan", "submit", "repro.wan.transfer:WanSession.submit", _count_submit),
    Target("core", "prepare", "repro.core.controller:Controller.prepare"),
    Target("core", "replan", "repro.core.controller:Controller.prepare_degraded"),
    Target("core", "place_new_data", "repro.core.controller:Controller.place_new_data"),
    Target("core", "run_query", "repro.core.controller:Controller.run_query"),
    Target("core", "dynamic", "repro.core.dynamic:run_dynamic", _count_dynamic),
    Target("serve", "loop", "repro.serve.scheduler:ServeScheduler.run", _count_serve),
    Target("serve", "admission", "repro.serve.tenants:TenantScheduler.enqueue"),
    Target("serve", "admission", "repro.serve.tenants:TenantScheduler.next_admission"),
    Target("serve", "cache_lookup", "repro.serve.cache:CubeCache.lookup"),
    Target("serve", "cache_insert", "repro.serve.cache:CubeCache.insert"),
    Target("serve", "cache_invalidate", "repro.serve.cache:CubeCache.invalidate_dataset", _count_invalidate),
    Target("chaos", "retry", "repro.chaos.runtime:simulate_with_retries", _count_retry),
    Target("obs", "critpath", "repro.obs.critpath:analyze_critical_paths", _count_critpath),
    Target("obs", "slo", "repro.obs.slo:SloTracker.observe_events"),
    Target("obs", "slo", "repro.obs.slo:SloTracker.finalize"),
    Target("obs", "export", "repro.obs.telemetry:write_jsonl", _count_export),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    unit_window: "tuple[float, float]",
    facts: Mapping[str, Any],
    harness: Mapping[str, float],
) -> Dict[str, float]:
    """Every ``per_layer`` metric of one traced repetition, by name.

    ``unit_window`` is the ``perf_counter`` interval of the timed unit;
    ``facts`` are the workload's own observables (``Outcome.facts``);
    ``harness`` carries the numbers only the harness can know.
    """
    spans: List[Span] = tracer.finished_spans()
    own = tracer.self_seconds()
    counters = tracer.counters
    begin, end = unit_window

    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    self_by_name: Dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for span_id, parent, _request, layer, name, started, finished in spans:
        key = f"{layer}.{name}"
        total[key] = total.get(key, 0.0) + (finished - started)
        calls[key] = calls.get(key, 0) + 1
        self_by_name[key] = self_by_name.get(key, 0.0) + own[span_id]
        if begin <= started and finished <= end and layer in layer_self:
            layer_self[layer] += own[span_id]
            if parent < 0:
                covered += finished - started

    def seconds(key: str) -> float:
        return total.get(key, 0.0)

    def count(key: str) -> float:
        return float(counters.get(key, 0.0))

    metrics: Dict[str, float] = {
        f"layer.{layer}_self_s": value for layer, value in layer_self.items()
    }
    metrics.update({
        "workloads.gen_s": seconds("workloads.gen"),
        "workloads.records": count("workloads.records"),
        "workloads.queries": count("workloads.queries"),
        "olap.cube_build_s": seconds("olap.cube_build"),
        "olap.cube_builds": calls.get("olap.cube_build", 0),
        "olap.cells": count("olap.cells"),
        "similarity.probe_build_s": seconds("similarity.probe_build"),
        "similarity.check_s": seconds("similarity.check"),
        "similarity.checks": count("similarity.checks"),
        "similarity.dimsum_s": seconds("similarity.dimsum"),
        "similarity.dimsum_calls": calls.get("similarity.dimsum", 0),
        "similarity.dimsum_pairs_examined": count("similarity.dimsum_pairs_examined"),
        "similarity.dimsum_skip_ratio": _ratio(
            count("similarity.dimsum_pairs_total")
            - count("similarity.dimsum_pairs_examined"),
            count("similarity.dimsum_pairs_total"),
        ),
        "similarity.minhash_s": seconds("similarity.minhash"),
        "similarity.minhash_sets": count("similarity.minhash_sets"),
        "placement.joint_s": seconds("placement.joint"),
        "placement.joint_rounds": count("placement.joint_rounds"),
        "placement.iridium_s": seconds("placement.iridium"),
        "placement.lp_solve_s": seconds("placement.lp_solve"),
        "placement.lp_solves": calls.get("placement.lp_solve", 0),
        "placement.replan_s": seconds("core.replan"),
        "placement.replans": calls.get("core.replan", 0),
        "placement.movement_s": seconds("placement.movement"),
        "placement.moved_bytes": count("placement.moved_bytes"),
        "placement.sim_plan_shuffle_s": float(facts.get("plan_shuffle_s", 0.0)),
        "query.compile_s": seconds("query.compile"),
        "query.compiles": calls.get("query.compile", 0),
        "engine.plan_s": seconds("engine.plan"),
        "engine.complete_s": seconds("engine.complete"),
        "engine.jobs": calls.get("engine.complete", 0),
        "engine.combine_s": seconds("engine.combine"),
        "engine.combine_calls": calls.get("engine.combine", 0),
        "engine.combine_ratio": _ratio(
            count("engine.combine_records_out"), count("engine.combine_records_in")
        ),
        "engine.route_s": seconds("engine.route"),
        "engine.assign_s": seconds("engine.assign"),
        "wan.simulate_s": seconds("wan.simulate"),
        "wan.simulate_calls": calls.get("wan.simulate", 0),
        "wan.advance_s": seconds("wan.advance"),
        "wan.advance_calls": calls.get("wan.advance", 0),
        "wan.us_per_advance": 1e6 * _ratio(
            seconds("wan.advance"), calls.get("wan.advance", 0)
        ),
        "wan.submit_s": seconds("wan.submit"),
        "wan.flows": count("wan.flows"),
        "wan.failed_transfers": count("wan.failed_transfers"),
        "core.prepare_self_s": self_by_name.get("core.prepare", 0.0),
        "core.run_query_self_s": self_by_name.get("core.run_query", 0.0),
        "core.dynamic_self_s": self_by_name.get("core.dynamic", 0.0),
        "core.sim_reduction_pct": float(facts.get("reduction_pct", 0.0)),
        "core.sim_bohr_speedup": float(facts.get("bohr_speedup", 0.0)),
        "serve.loop_self_s": self_by_name.get("serve.loop", 0.0),
        "serve.us_per_arrival": 1e6 * _ratio(
            self_by_name.get("serve.loop", 0.0), count("serve.arrivals")
        ),
        "serve.admission_s": seconds("serve.admission"),
        "serve.cache_lookup_s": seconds("serve.cache_lookup"),
        "serve.arrivals": count("serve.arrivals"),
        "serve.executed": count("serve.executed"),
        "serve.cached": count("serve.cached"),
        "serve.shed": count("serve.shed"),
        "serve.cache_hit_rate": _ratio(
            count("serve.cache_hits"), count("serve.cache_lookups")
        ),
        "serve.cache_evictions": count("serve.cache_evictions"),
        "serve.invalidations": count("serve.invalidations"),
        "serve.queue_wait_sim_s": _ratio(
            count("serve.queue_wait_sim"), count("serve.executed")
        ),
        "serve.slot_wait_sim_s": _ratio(
            count("serve.slot_wait_sim"), count("serve.executed")
        ),
        "chaos.retry_s": seconds("chaos.retry"),
        "chaos.retries": count("chaos.retries"),
        "chaos.lost_bytes": count("chaos.lost_bytes"),
        "chaos.aborted": count("chaos.aborted"),
        "chaos.fault_replans": count("chaos.fault_replans"),
        "obs.events": count("obs.events"),
        "obs.emit_overhead_s": float(facts.get("obs_emit_overhead_s", 0.0)),
        "obs.emit_us_per_event": 1e6 * _ratio(
            float(facts.get("obs_emit_overhead_s", 0.0)), count("obs.events")
        ),
        "obs.critpath_s": seconds("obs.critpath"),
        "obs.slo_s": seconds("obs.slo"),
        "obs.export_s": seconds("obs.export"),
        "obs.archive_bytes": count("obs.archive_bytes"),
        "harness.trace_overhead_frac": harness["trace_overhead_frac"],
        "harness.untraced_frac": 1.0 - _ratio(covered, end - begin),
        "harness.spans": len(spans),
        "harness.missing_targets": tracer.missing_targets,
        "harness.wall_iqr_frac": harness["wall_iqr_frac"],
        "harness.calib_s": harness["calib_s"],
    })
    return {name: float(value) for name, value in metrics.items()}
