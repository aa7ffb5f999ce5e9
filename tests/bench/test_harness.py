"""Harness execution: repetitions, determinism gate, discovery, schema."""

import json

import pytest

from repro.bench import registry
from repro.bench.harness import run_case, run_suite
from repro.bench.registry import BenchCase, register_bench, register_reset_hook
from repro.bench.schema import (
    SCHEMA_VERSION,
    build_report,
    load_report,
    save_report,
    validate_report,
)
from repro.errors import BenchError


def make_case(fn, name="case"):
    return BenchCase(name=name, fn=fn, suites=("smoke",), module="m")


class TestRunCase:
    def test_repeat_medians_and_sim_recorded_once(self, clean_registry):
        wall_values = iter([0.3, 0.1, 0.2])

        def fn():
            return {"sim": {"qct": 2.5}, "wall": {"t": next(wall_values)}}

        entry = run_case(make_case(fn), warmup=0, repeat=3)
        assert entry["sim"] == {"qct": 2.5}
        assert entry["wall"]["t"] == 0.2  # median of 0.3, 0.1, 0.2
        assert len(entry["duration_seconds"]["samples"]) == 3
        assert entry["suites"] == ["smoke"]

    def test_warmup_reps_are_discarded(self, clean_registry):
        calls = []

        def fn():
            calls.append(1)
            return {"sim": {"qct": 1.0}}

        entry = run_case(make_case(fn), warmup=2, repeat=1)
        assert len(calls) == 3
        assert len(entry["duration_seconds"]["samples"]) == 1

    def test_reset_hooks_run_before_every_repetition(self, clean_registry):
        resets = []
        register_reset_hook(lambda: resets.append(1))
        run_case(
            make_case(lambda: {"sim": {"qct": 1.0}}), warmup=1, repeat=2
        )
        assert len(resets) == 3

    def test_nondeterministic_sim_metrics_raise(self, clean_registry):
        values = iter([1.0, 1.0000001])

        def fn():
            return {"sim": {"qct": next(values)}}

        with pytest.raises(BenchError, match="nondeterministic"):
            run_case(make_case(fn, name="flaky"), warmup=0, repeat=2)

    def test_wall_jitter_is_fine(self, clean_registry):
        values = iter([1.0, 2.0])

        def fn():
            return {"sim": {"qct": 5.0}, "wall": {"t": next(values)}}

        entry = run_case(make_case(fn), warmup=0, repeat=2)
        assert entry["wall"]["t"] == 1.5

    def test_repeat_must_be_positive(self, clean_registry):
        with pytest.raises(BenchError, match="repeat"):
            run_case(make_case(lambda: {"sim": {"m": 1.0}}), warmup=0, repeat=0)


class TestRunSuite:
    def _write_script(self, directory, module_name):
        script = directory / f"{module_name}.py"
        script.write_text(
            "from repro.bench import bench_seed, register_bench\n"
            "\n"
            f"@register_bench('{module_name}-case', suites=('smoke',))\n"
            "def case():\n"
            "    return {'sim': {'seed_seen': float(bench_seed())},\n"
            "            'wall': {}}\n"
        )
        return script

    def test_suite_pins_seed_and_unpins_after(
        self, tmp_path, clean_registry, monkeypatch
    ):
        import sys

        monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)
        name = "bench_seedprobe_a"
        self._write_script(tmp_path, name)
        try:
            report = run_suite(
                suite="smoke", seed=123, benchmarks_dir=str(tmp_path)
            )
        finally:
            sys.modules.pop(name, None)
        entry = report["benchmarks"][f"{name}-case"]
        assert entry["sim"]["seed_seen"] == 123.0
        assert report["seed"] == 123
        assert report["suite"] == "smoke"
        assert report["schema_version"] == SCHEMA_VERSION
        # The pin must not leak past the run.
        assert registry.bench_seed() == 11

    def test_unknown_suite_rejected(self, clean_registry):
        with pytest.raises(BenchError, match="unknown suite"):
            run_suite(suite="bogus")

    def test_missing_directory_rejected(self, clean_registry, tmp_path):
        with pytest.raises(BenchError, match="not found"):
            run_suite(suite="smoke", benchmarks_dir=str(tmp_path / "nope"))

    def test_broken_script_is_a_clear_error(self, clean_registry, tmp_path):
        (tmp_path / "bench_broken_xyz.py").write_text("raise ValueError('boom')\n")
        with pytest.raises(BenchError, match="bench_broken_xyz.py failed"):
            run_suite(suite="smoke", benchmarks_dir=str(tmp_path))


class TestSchema:
    def _benchmarks(self):
        return {
            "case-a": {
                "module": "m",
                "suites": ["smoke"],
                "sim": {"qct": 1.5},
                "wall": {"lp": 0.1},
                "duration_seconds": {"median": 1.0, "stdev": 0.0,
                                     "samples": [1.0]},
            }
        }

    def test_build_save_load_roundtrip(self, tmp_path):
        report = build_report(
            self._benchmarks(), suite="smoke", seed=11, warmup=0, repeat=1
        )
        path = tmp_path / "BENCH_test.json"
        save_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(path.read_text())
        assert loaded["benchmarks"] == self._benchmarks()

    def test_missing_top_field_rejected(self):
        report = build_report(
            self._benchmarks(), suite="smoke", seed=11, warmup=0, repeat=1
        )
        del report["benchmarks"]
        with pytest.raises(BenchError, match="missing required field"):
            validate_report(report)

    def test_non_numeric_metric_rejected(self):
        benchmarks = self._benchmarks()
        benchmarks["case-a"]["sim"]["qct"] = "fast"
        with pytest.raises(BenchError, match="not numeric"):
            build_report(benchmarks, suite="smoke", seed=11, warmup=0, repeat=1)

    def test_duration_needs_median(self):
        benchmarks = self._benchmarks()
        benchmarks["case-a"]["duration_seconds"] = {"stdev": 0.0}
        with pytest.raises(BenchError, match="median"):
            build_report(benchmarks, suite="smoke", seed=11, warmup=0, repeat=1)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchError, match="invalid JSON"):
            load_report(str(path))

    @pytest.mark.parametrize("kind", ["sim", "wall"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metric_rejected(self, tmp_path, kind, value):
        """Python's ``json`` reads NaN/Infinity, and a NaN compares as
        neither better nor worse: the gate would pass it.  Both load and
        save refuse it, naming the case and the metric."""
        report = build_report(
            self._benchmarks(), suite="smoke", seed=11, warmup=0, repeat=1
        )
        metric = next(iter(report["benchmarks"]["case-a"][kind]))
        report["benchmarks"]["case-a"][kind][metric] = float(value)
        path = tmp_path / "BENCH_nan.json"
        path.write_text(json.dumps(report))
        expected = f"'case-a' metric {kind}.{metric} is not finite"
        with pytest.raises(BenchError, match=expected):
            load_report(str(path))
        with pytest.raises(BenchError, match=expected):
            save_report(report, str(tmp_path / "out.json"))


class TestEndToEnd:
    def test_smoke_suite_self_compare_is_bit_identical(self, clean_registry):
        """The acceptance loop: run smoke, compare against itself."""
        import os

        from repro.bench.compare import compare_reports

        benchmarks_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks"
        )
        if not os.path.isdir(benchmarks_dir):
            pytest.skip("benchmarks directory not present")
        report = run_suite(suite="smoke", benchmarks_dir=benchmarks_dir)
        verdict = compare_reports(report, report)
        assert verdict.ok
        assert not verdict.regressions
        assert len(report["benchmarks"]) >= 3
