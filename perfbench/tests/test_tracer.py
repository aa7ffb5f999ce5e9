"""Tracer arithmetic and patching, on synthetic targets."""

import sys
import time
import types

import pytest

from perfbench.tracer import LayerTracer, Target


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


@pytest.fixture
def modules():
    """An owner module, and an importer holding a ``from``-import of it."""
    owner = types.ModuleType("perfbench_fake_owner")
    importer = types.ModuleType("perfbench_fake_importer")

    def leaf(value):
        _spin(0.002)
        return value * 2

    def parent(value):
        _spin(0.002)
        return owner.leaf(value) + owner.leaf(value)

    def recurse(depth):
        _spin(0.001)
        return 0 if depth == 0 else 1 + owner.recurse(depth - 1)

    def boom():
        _spin(0.001)
        raise ValueError("boom")

    class Thing:
        def method(self, value):
            return value + 1

        @classmethod
        def build(cls, value):
            return cls().method(value)

        @staticmethod
        def helper(value):
            return value - 1

    owner.leaf, owner.parent, owner.recurse, owner.boom = leaf, parent, recurse, boom
    owner.Thing = Thing
    importer.renamed_leaf = leaf  # ``from owner import leaf as renamed_leaf``
    sys.modules[owner.__name__] = owner
    sys.modules[importer.__name__] = importer
    yield owner, importer
    del sys.modules[owner.__name__], sys.modules[importer.__name__]


def _target(layer, name, attr, count=None):
    return Target(layer, name, f"perfbench_fake_owner:{attr}", count)


def test_nested_self_time_is_duration_minus_children(modules):
    owner, _ = modules
    tracer = LayerTracer([_target("a", "parent", "parent"), _target("b", "leaf", "leaf")])
    tracer.install()
    try:
        assert owner.parent(3) == 12
    finally:
        tracer.uninstall()
    spans = tracer.finished_spans()
    assert [(s[3], s[4], s[1]) for s in spans] == [
        ("a", "parent", -1), ("b", "leaf", 0), ("b", "leaf", 0)
    ]
    own = tracer.self_seconds()
    duration = {s[0]: s[6] - s[5] for s in spans}
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])
    assert own[1] == duration[1] and own[2] == duration[2]
    assert own[0] >= 0.002 and sum(own.values()) == pytest.approx(duration[0])


def test_recursive_calls_nest_and_self_times_sum_to_the_root(modules):
    owner, _ = modules
    tracer = LayerTracer([_target("a", "recurse", "recurse")]).install()
    try:
        assert owner.recurse(3) == 3
    finally:
        tracer.uninstall()
    spans = tracer.finished_spans()
    assert [s[1] for s in spans] == [-1, 0, 1, 2]
    own = tracer.self_seconds()
    assert all(value > 0 for value in own.values())
    assert sum(own.values()) == pytest.approx(spans[0][6] - spans[0][5])


def test_raising_call_closes_its_span_and_skips_the_count(modules):
    owner, _ = modules
    counted = []
    tracer = LayerTracer([
        _target("a", "boom", "boom", lambda c, a, k, r: counted.append(r)),
        _target("b", "leaf", "leaf"),
    ]).install()
    try:
        with pytest.raises(ValueError):
            owner.boom()
        owner.leaf(1)
    finally:
        tracer.uninstall()
    spans = tracer.finished_spans()
    assert [(s[4], s[1]) for s in spans] == [("boom", -1), ("leaf", -1)]
    assert counted == []


def test_counts_read_arguments_and_results(modules):
    owner, _ = modules

    def count(counters, args, kwargs, result):
        counters["in"] = counters.get("in", 0) + args[0]
        counters["out"] = counters.get("out", 0) + result

    tracer = LayerTracer([_target("b", "leaf", "leaf", count)]).install()
    try:
        owner.leaf(2)
        owner.leaf(5)
    finally:
        tracer.uninstall()
    assert tracer.counters == {"in": 7, "out": 14}


def test_from_imports_are_rebound_and_uninstall_restores(modules):
    owner, importer = modules
    original = owner.leaf
    tracer = LayerTracer([_target("b", "leaf", "leaf")]).install()
    try:
        assert owner.leaf is not original
        assert importer.renamed_leaf is owner.leaf
        importer.renamed_leaf(1)
    finally:
        tracer.uninstall()
    assert len(tracer.finished_spans()) == 1
    assert owner.leaf is original and importer.renamed_leaf is original


def test_methods_classmethods_and_staticmethods(modules):
    owner, _ = modules
    before = dict(vars(owner.Thing))
    tracer = LayerTracer([
        _target("c", "method", "Thing.method"),
        _target("c", "build", "Thing.build"),
        _target("c", "helper", "Thing.helper"),
    ]).install()
    try:
        assert owner.Thing.build(1) == 2
        assert owner.Thing.helper(1) == 0
        assert owner.Thing().helper(5) == 4
    finally:
        tracer.uninstall()
    assert [(s[4], s[1]) for s in tracer.finished_spans()] == [
        ("build", -1), ("method", 0), ("helper", -1), ("helper", -1)
    ]
    assert {k: vars(owner.Thing)[k] for k in before} == before


def test_missing_targets_are_skipped_and_counted(modules):
    owner, _ = modules
    tracer = LayerTracer([
        _target("b", "leaf", "leaf"),
        _target("x", "gone", "no_such_function"),
        _target("x", "gone", "Thing.no_such_method"),
        Target("x", "gone", "perfbench_no_such_module:anything"),
    ]).install()
    try:
        owner.leaf(1)
    finally:
        tracer.uninstall()
    assert tracer.missing_targets == 3
    assert len(tracer.finished_spans()) == 1


def test_paused_calls_leave_no_span_and_labels_mark_requests(modules):
    owner, _ = modules
    tracer = LayerTracer([_target("b", "leaf", "leaf")]).install()
    try:
        with tracer.labelled("q1"):
            owner.leaf(1)
        with tracer.paused():
            owner.leaf(1)
        owner.leaf(1)
    finally:
        tracer.uninstall()
    assert [s[2] for s in tracer.finished_spans()] == ["q1", ""]


def test_spans_file_round_trips(modules, tmp_path):
    import json

    owner, _ = modules
    tracer = LayerTracer([_target("a", "parent", "parent"), _target("b", "leaf", "leaf")])
    tracer.install()
    try:
        owner.parent(1)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(str(path)) == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["parent"] for row in rows] == [-1, 0, 0]
    assert rows[0]["self_s"] == pytest.approx(
        (rows[0]["t1"] - rows[0]["t0"]) - sum(r["t1"] - r["t0"] for r in rows[1:])
    )
