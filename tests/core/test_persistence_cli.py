"""Persistence round-trip and CLI tests."""

import json
from pathlib import Path
from unittest import mock

import pytest

from repro.core.persistence import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.core.runner import run_experiment
from repro.errors import ConfigurationError
from repro.systems.base import SystemConfig
from repro.wan.presets import uniform_sites
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

TOPOLOGY = uniform_sites(3, uplink="1MB/s", machines=1, executors_per_machine=2)


@pytest.fixture(scope="module")
def result():
    def factory():
        return bigdata_workload(
            TOPOLOGY, seed=2,
            spec=WorkloadSpec(records_per_site=15, record_bytes=20_000,
                              num_datasets=1),
            flavour="aggregation",
        )

    return run_experiment(
        "bohr-sim", factory, TOPOLOGY,
        SystemConfig(lag_seconds=600.0, partition_records=8), query_limit=3,
    )


class TestPersistence:
    def test_round_trip_preserves_metrics(self, result):
        clone = result_from_dict(result_to_dict(result))
        assert clone.system == result.system
        assert clone.workload == result.workload
        assert clone.mean_qct == pytest.approx(result.mean_qct)
        assert clone.baseline_mean_qct == pytest.approx(result.baseline_mean_qct)
        assert clone.data_reduction_by_site() == result.data_reduction_by_site()
        assert clone.prep.lp_solve_seconds == result.prep.lp_solve_seconds
        assert clone.prep.reduce_fractions == result.prep.reduce_fractions
        assert clone.prep.cross_similarity == result.prep.cross_similarity

    def test_dict_is_json_safe(self, result):
        json.dumps(result_to_dict(result))

    def test_save_and_load(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result, result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].mean_qct == pytest.approx(result.mean_qct)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "results": []}))
        with pytest.raises(ConfigurationError):
            load_results(path)


class TestCli:
    def test_schemes_command(self, capsys):
        from repro.cli import main

        assert main(["schemes"]) == 0
        output = capsys.readouterr().out
        assert "bohr" in output
        assert "iridium-c" in output
        assert "centralized" in output

    def test_topology_command(self, capsys):
        from repro.cli import main

        assert main(["topology", "--base-uplink", "1MB/s"]) == 0
        output = capsys.readouterr().out
        assert "tokyo" in output
        assert "singapore" in output

    def test_run_command_writes_json(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "out.json"
        code = main([
            "run", "--scheme", "bohr-sim", "--workload", "tpcds",
            "--queries", "2", "--scale", "0.2", "--lag", "4",
            "--json", str(path),
        ])
        assert code == 0
        assert "mean QCT" in capsys.readouterr().out
        loaded = load_results(path)
        assert loaded[0].system == "bohr-sim"

    def test_same_seed_runs_write_the_same_json(self, capsys, tmp_path):
        """QCT and the RDD clustering cost included; only the four
        wall-measured preparation timings may differ."""
        from repro.cli import main

        documents = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "run", "--scheme", "bohr", "--queries", "6", "--json", str(path),
            ]) == 0
            document = json.loads(path.read_text())
            for result in document["results"]:
                for timing in (
                    "cube_build_seconds", "probe_build_seconds",
                    "similarity_check_seconds", "lp_solve_seconds",
                ):
                    del result["prep"][timing]
            documents.append(document)
        capsys.readouterr()
        [result] = documents[0]["results"]
        assert any(run["rdd_overhead_seconds"] > 0 for run in result["runs"])
        assert documents[0] == documents[1]

    def test_compare_command(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "--schemes", "spark,iridium",
            "--workload", "facebook", "--queries", "2", "--scale", "0.2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Mean QCT" in output
        assert "spark" in output

    def test_unknown_scheme_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--scheme", "hadoop"])

    @pytest.mark.parametrize(
        "command",
        ["root", "schemes", "topology", "run", "compare", "inspect", "report",
         "top", "serve", "bench", "lint"],
    )
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        """Every subcommand's ``--help`` is byte-identical to the snapshot
        taken (at COLUMNS=80) before the flag declarations were factored:
        no flag added, dropped, renamed, reordered or re-worded."""
        from repro.cli import main

        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command == "root" else [command, "--help"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        golden = Path(__file__).parent / "golden_help" / f"help_{command}.txt"
        assert capsys.readouterr().out == golden.read_text()


class TestCliErrors:
    """A :class:`ReproError` reaches the user as one ``error:`` line, exit 2."""

    @pytest.fixture(scope="class")
    def corrupt_archive(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("archive") / "telemetry.jsonl"
        assert main([
            "run", "--scheme", "bohr-sim", "--workload", "tpcds",
            "--queries", "2", "--scale", "0.2", "--lag", "4",
            "--telemetry", str(path),
        ]) == 0
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return path

    @staticmethod
    def single_error_line(capsys, expected: str) -> None:
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()], err
        assert err.startswith("error: ") and expected in err, err

    @pytest.mark.parametrize("command", ["inspect", "report"])
    def test_corrupt_archive(self, command, corrupt_archive, capsys, tmp_path):
        from repro.cli import main

        capsys.readouterr()
        argv = [command, str(corrupt_archive)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        self.single_error_line(capsys, f"{corrupt_archive}:")
        assert not (tmp_path / "report.html").exists()

    def test_bench_reads_its_baseline_before_running_the_suite(self, capsys, tmp_path):
        from repro.cli import main

        missing = tmp_path / "missing.json"
        with mock.patch(
            "repro.bench.harness.run_suite", side_effect=AssertionError("the suite ran")
        ):
            assert main(["bench", "--suite", "smoke", "--compare", str(missing)]) == 2
        self.single_error_line(capsys, f"cannot read {missing}")

    @pytest.mark.parametrize("command", ["inspect", "report"])
    def test_invalid_utf8_archive(self, command, corrupt_archive, capsys, tmp_path):
        """A byte with its high bit set is named by file and line."""
        from repro.cli import main

        path = tmp_path / "telemetry.jsonl"
        lines = corrupt_archive.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1][1:]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        argv = [command, str(path)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        self.single_error_line(capsys, f"{path}:2: invalid UTF-8")

    def test_bench_baseline_with_invalid_utf8(self, capsys, tmp_path):
        from repro.cli import main

        baseline = tmp_path / "BENCH_bad.json"
        baseline.write_bytes(b'{"schema_version": 1\xff}')
        with mock.patch(
            "repro.bench.harness.run_suite", side_effect=AssertionError("the suite ran")
        ):
            assert main(["bench", "--suite", "smoke", "--compare", str(baseline)]) == 2
        self.single_error_line(capsys, f"{baseline}: invalid UTF-8")
