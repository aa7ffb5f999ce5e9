"""Same seed, same inputs, same sim metrics — in and across processes."""

import json
import os
import subprocess
import sys

from perfbench import PACKAGE_DIR, ROOT_DIR, inputs
from perfbench.harness import percentile_of, tail_percentile


def _stream(seed):
    return inputs.arrival_stream(
        seed, 0, 200, 2.0, inputs.tenant_names(), 42, query_zipf_s=1.1
    )


def test_arrival_streams_repeat_for_a_seed_and_differ_across_seeds():
    first, again, other = _stream(7), _stream(7), _stream(8)
    assert first == again
    assert first != other
    assert all(a.time < b.time for a, b in zip(first, first[1:]))
    assert {a.tenant for a in first} <= set(inputs.tenant_names())
    assert all(0 <= a.query_index < 42 for a in first)
    # Streams of one workload are independent of each other.
    assert inputs.arrival_stream(7, 1, 200, 2.0, inputs.tenant_names(), 42) != first


def test_clone_shares_records_but_not_shards_or_counters():
    workload = inputs.build_dataset_workload("tpcds", inputs.topology(), 20, 2, 2)
    clone = inputs.clone_workload(workload)
    original = next(iter(workload.catalog))
    site = original.sites[0]
    copied = next(iter(clone.catalog))
    assert copied.shard(site) == original.shard(site)
    copied.shards[site].pop()
    clone.queries[0].record_execution()
    assert len(copied.shard(site)) == len(original.shard(site)) - 1
    assert clone.queries[0].executions == workload.queries[0].executions + 1


def test_tail_percentile_rule():
    assert tail_percentile(24) == 80  # low-n floor
    assert tail_percentile(50) == 80
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    assert percentile_of([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert percentile_of([1.0, 2.0], 50.0) == 1.5


def _quick_run(workload, seed):
    process = subprocess.run(
        [sys.executable, os.path.join(PACKAGE_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--quick", "1"],
        cwd=ROOT_DIR, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_worker_sim_metrics_repeat_across_processes():
    first, again = _quick_run("serve-contended", 5), _quick_run("serve-contended", 5)
    sim = [name for name in first if name.startswith("sim_")]
    assert len(sim) == 4
    assert {n: first[n]["value"] for n in sim} == {n: again[n]["value"] for n in sim}
    assert all(first[name]["value"] != 0 for name in first)


def test_worker_exits_non_zero_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and perfbench/ has nothing to
    measure: the command must fail, and print no result."""
    import shutil

    shutil.copy(os.path.join(ROOT_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PACKAGE_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prepare-replan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
