"""The benchmark's own tests: metric names and units, count determinism, wiring.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("spotify", "churn", "churn-unix")
#: churn cycles are 31 ops; whole cycles keep the per-op counts exact
CYCLE_OPS = 31


def _tiny(workload: str, trace: bool, **kwargs) -> dict:
    options = dict(seconds=1.0, setups=1, warmup_ops=30)
    options.update(kwargs)
    return bench.run(workload, seed=3, trace=trace, **options)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _tiny(workload, trace=False)
    spec = _spec()
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == expected
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0, result["detail"]["errors"]
    assert result["metrics"]["success_ratio"]["value"] == 1.0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _tiny(workload, trace=True)
    spec = _spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == expected
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0
    metrics = {n: e["value"] for n, e in result["metrics"].items()}
    if workload == "churn-unix":
        assert metrics["rpc.frames_per_op"] > 0
        assert metrics["rpc.bytes_per_op"] > 0
    else:
        assert metrics["rpc.frames_per_op"] == 0
        assert metrics["rpc.bytes_per_op"] == 0
    if workload == "spotify":
        # PPIS walks whole partitions of a 1,000-file namespace
        assert metrics["ndb.fragment.rows_scanned_per_row_returned"] > 5


COUNTS = ("dal.round_trips_per_op", "dal.rows_read_per_op",
          "dal.rows_written_per_op", "dal.rows_locked_per_op",
          "hopsfs.ops_subtree.txs_per_op",
          *(f"dal.access.{k}_per_op" for k in bench.ACCESS_KINDS))


@pytest.mark.parametrize("workload", ("churn", "churn-unix"))
def test_same_seed_churn_counts_repeat_exactly(workload):
    runs = [_tiny(workload, trace=True, seconds=600.0,
                  max_ops=4 * CYCLE_OPS, warmup_ops=2 * CYCLE_OPS)
            for _ in range(2)]
    names = COUNTS + (("rpc.frames_per_op",) if workload == "churn-unix"
                      else ())
    first, second = ({n: r["metrics"][n]["value"] for n in names}
                     for r in runs)
    assert first == second
    assert first["dal.round_trips_per_op"] > 0


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "churn", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_command_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(ROOT, workloads.RUN_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "churn",
             "--seed", "5", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_zero_host_sensitivity_leaves_times_as_measured():
    deployment, stream = workloads.WORKLOADS["churn"](3).build()
    try:
        window = bench._run_window(stream, deployment, 600.0,
                                   max_ops=2 * CYCLE_OPS, sensitivity=0.0)
    finally:
        deployment.close()
    scaled = window["scaled"]
    assert scaled["samples"] == window["samples"]
    assert scaled["elapsed"] == pytest.approx(window["elapsed"])
    assert scaled["cpu"] == pytest.approx(window["cpu"])
    assert window["slowdown"] == pytest.approx(1.0)
