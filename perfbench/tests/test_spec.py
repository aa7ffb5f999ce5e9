"""BENCHMARK.json is well-formed and in step with the code that fills it."""

import json
import os
import re

from perfbench import PACKAGE_DIR
from perfbench.layers import LAYERS, TARGETS, layer_metrics
from perfbench.run import load_spec
from perfbench.tracer import LayerTracer
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape_and_limits():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in spec[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_registry():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_per_layer_names_are_exactly_what_the_trace_produces():
    spec = load_spec()
    produced = layer_metrics(
        LayerTracer([]), (0.0, 1.0), {},
        {"trace_overhead_frac": 0.0, "wall_iqr_frac": 0.0, "calib_s": 0.0},
    )
    assert set(produced) == {metric["name"] for metric in spec["per_layer"]}
    assert {target.layer for target in TARGETS} == set(LAYERS) | {"workloads"}


def test_every_interaction_names_existing_metrics_and_workloads():
    spec = load_spec()
    with open(os.path.join(PACKAGE_DIR, "interactions.json"), encoding="utf-8") as handle:
        groups = json.load(handle)["groups"]
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    covered = [name for group in groups for name in group["metrics"]]
    assert sorted(covered) == sorted(per_layer)  # each exactly once
    for group in groups:
        for metric, workload in group["moves"]:
            assert metric in end_to_end and workload in workloads
        assert set(group["bypass"]) <= workloads
