#!/usr/bin/env python3
"""The repository benchmark: one closed-loop workload, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spotify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
second measurement with every layer's public functions wrapped and
reports the per-layer metrics instead (see ``perfbench/README.md``).
End-to-end times are scaled to a reference host speed, measured by a
speed probe run between ops (see :func:`_run_window`); the lines above
the result print each figure as measured beside the scaled one.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

After the timed window the run checks the program's outputs (reads
returned the expected values, the namespace matches what the client
did, ``fsck`` is healthy); if any check fails the result says
``"correct": false`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: setup_s is the median of at least SETUPS deployment builds, repeated
#: until SETUP_SECONDS have been spent building (a cheap build is
#: repeated many times, so its median does not rest on a few samples)
SETUPS = 3
SETUP_SECONDS = 2.0
#: seconds of ops run before the timed window (not measured); on
#: churn-unix a window that started after 300 ops (~1.5 s) still ran ~6%
#: slower than the next one
WARMUP_S = 4.0
#: the speed probe (see _speed_probe): its size, how often the timed
#: window runs it, and its median on the reference host. End-to-end
#: times are reported at the reference host's speed.
PROBE_ITEMS = 400
PROBE_EVERY_S = 0.02
PROBE_REFERENCE_S = 0.00025
#: group length for calibrate()
CALIBRATION_GROUP_S = 1.0


def _pin_to_one_cpu() -> None:
    """Run the benchmark, its worker threads and any ``ndb-server`` it
    spawns (children inherit the mask) on one CPU.

    On a small shared host, hand-offs between the client thread, the
    subtree workers and the server otherwise cross CPUs, and how long a
    cross-CPU wake-up takes depends on what else the host runs: unpinned,
    ``churn-unix`` ran ~30% slower and spread several times wider.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


END_TO_END = {
    "ops_per_s": "1/s", "read_p50_ms": "ms", "read_p95_ms": "ms",
    "write_p50_ms": "ms", "write_p95_ms": "ms", "subtree_p50_ms": "ms",
    "cpu_us_per_op": "us", "success_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}

ACCESS_KINDS = {"pk": "pk", "batched_pk": "batched_pk",
                "ppis": "partition_pruned_scan", "index_scan": "index_scan",
                "full_scan": "full_table_scan", "commit": "commit"}

PER_LAYER = {
    "hopsfs.namenode.us_per_op": "us",
    "hopsfs.client.retries_per_op": "count",
    "hopsfs.tx.resolve_us_per_op": "us",
    "hopsfs.hintcache.hit_ratio": "ratio",
    "hopsfs.hintcache.invalidations_per_op": "count",
    "hopsfs.ops_subtree.us_per_op": "us",
    "hopsfs.ops_subtree.txs_per_op": "count",
    "dal.round_trips_per_op": "count",
    **{f"dal.access.{k}_per_op": "count" for k in ACCESS_KINDS},
    "dal.us_per_op": "us",
    "dal.rows_read_per_op": "count",
    "dal.rows_written_per_op": "count",
    "dal.rows_locked_per_op": "count",
    "ndb.fragment.rows_scanned_per_row_returned": "ratio",
    "ndb.fragment.scan_us_per_op": "us",
    "ndb.locks.acquire_us_per_op": "us",
    "ndb.locks.wait_ms_per_op": "ms",
    "ndb.locks.deadlocks_per_op": "count",
    "ndb.commit.us_per_op": "us",
    "ndb.tx.commit_ratio": "ratio",
    "rpc.frames_per_op": "count",
    "rpc.bytes_per_op": "B",
    "rpc.call_us_per_op": "us",
    "rpc.codec_us_per_op": "us",
    "rpc.server_us_per_op": "us",
    "metrics.us_per_op": "us",
    "metrics.share": "ratio",
    "trace.overhead_pct": "%",
}


def _self_metric(layer: str) -> str:
    return f"self.{layer}.us_per_op"


def _per_layer_units() -> dict[str, str]:
    from layers import LAYERS

    units = dict(PER_LAYER)
    units.update({_self_metric(layer): "us" for layer in LAYERS})
    return units


# -- measurement helpers -------------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """CPU seconds of another process, from its process-wide CPU clock
    (nanosecond resolution, unlike the clock ticks of /proc/<pid>/stat);
    Linux derives the clock's id from the pid as ``clock_getcpuclockid``
    does."""
    return time.clock_gettime(((~pid) << 3) | 2)


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _cpu(deployment) -> float:
    total = time.process_time()
    if deployment.server_pid is not None:
        total += _proc_cpu_seconds(deployment.server_pid)
    return total


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


class _ProbeRow:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _speed_probe() -> float:
    """Wall seconds of a fixed piece of interpreter work (dict lookups,
    string building, small objects, a keyed sort; 0.25 ms on the
    reference host). It calls nothing in the program, so only the
    host's speed moves it."""
    started = time.perf_counter()
    table: dict[str, _ProbeRow] = {}
    for i in range(PROBE_ITEMS):
        key = "/probe/" + str(i % 97)
        row = table.get(key)
        if row is None:
            table[key] = _ProbeRow(key, i)
        else:
            row.value += i
    sorted(table.values(), key=lambda r: r.value)
    return time.perf_counter() - started


def _slowdown(probes: list[float]) -> float:
    return statistics.median(probes) / PROBE_REFERENCE_S


def _run_window(stream, deployment, seconds: float,
                max_ops: Optional[int] = None, tracer=None,
                sensitivity: float = 1.0) -> dict[str, Any]:
    """Run the closed loop for ``seconds`` (or until ``max_ops`` ops were
    attempted).

    Between ops, every PROBE_EVERY_S, the loop times a speed probe, so
    the window is a run of segments, each between two probes. The host's
    speed changes in phases that last from a fraction of a second to
    seconds, so a segment's host slowdown is taken from the probes
    nearest to it: the two before its end and the two after its start.
    The workload's own slowdown is that to the power ``sensitivity``
    (see :func:`calibrate`). Returns wall and CPU seconds (probes
    excluded), op counts and latency samples as measured, and under
    ``scaled`` the same times with each segment's divided by the
    workload's slowdown; ``slowdown`` is the window's, over its wall
    seconds; ``segments`` lists (wall seconds, ops, host slowdown).
    """
    rec = stream.rec
    rec.reset()
    kinds = list(rec.samples)
    probes: list[float] = []
    #: per segment: wall seconds, CPU seconds, where its samples start
    segments: list[tuple[float, float, dict[str, int]]] = []
    if tracer is not None:
        rec.hook = tracer.begin_op
    try:
        deadline = time.perf_counter() + seconds
        done = False
        while not done:
            probes.append(_speed_probe())
            marks = {kind: len(rec.samples[kind]) for kind in kinds}
            started, cpu = time.perf_counter(), _cpu(deployment)
            next_probe = started + PROBE_EVERY_S
            while True:
                now = time.perf_counter()
                done = now >= deadline or (max_ops is not None
                                           and rec.attempted >= max_ops)
                if done or now >= next_probe:
                    break
                stream.step()
            segments.append((time.perf_counter() - started,
                             _cpu(deployment) - cpu, marks))
        probes.append(_speed_probe())
    finally:
        rec.hook = None
    elapsed = cpu = 0.0
    scaled: dict[str, Any] = {"elapsed": 0.0, "cpu": 0.0,
                              "samples": {kind: [] for kind in kinds}}
    ends = [segment[2] for segment in segments[1:]]
    ends.append({kind: len(rec.samples[kind]) for kind in kinds})
    local = [_slowdown(probes[max(0, k - 1):k + 3])
             for k in range(len(segments))]
    for (wall, busy, marks), end, host in zip(segments, ends, local):
        slowdown = host ** sensitivity
        elapsed += wall
        cpu += busy
        scaled["elapsed"] += wall / slowdown
        scaled["cpu"] += busy / slowdown
        for kind in kinds:
            scaled["samples"][kind].extend(
                t / slowdown for t in rec.samples[kind][marks[kind]:end[kind]])
    return {"elapsed": elapsed, "cpu": cpu, "attempted": rec.attempted,
            "failed": rec.failed, "completed": rec.attempted - rec.failed,
            "samples": rec.samples, "scaled": scaled,
            "slowdown": (elapsed / scaled["elapsed"]
                         if scaled["elapsed"] else 1.0),
            "segments": [(wall, sum(end[k] - marks[k] for k in kinds), host)
                         for (wall, _, marks), end, host
                         in zip(segments, ends, local)]}


def _server_seconds(deployment) -> float:
    """Seconds the ndb-server spent handling requests (all but metrics
    polls), from its own registry."""
    snap = deployment.fs.driver.metrics_snapshot(include_samples=False)
    return sum(h["sum"] for h in snap["histograms"]
               if h["name"] == "rpc_request_seconds"
               and h["labels"].get("method") != "metrics")


def _program_counters(deployment, stream) -> dict[str, float]:
    """Counters the program keeps itself, read around a traced window."""
    nn = deployment.namenode
    metrics = nn.metrics
    values = {
        "round_trips": metrics.get_counter("db_round_trips_total"),
        "rows_read": metrics.get_counter("db_rows_read_total"),
        "rows_written": metrics.get_counter("db_rows_written_total"),
        "rows_locked": metrics.get_counter("db_rows_locked_total"),
        "retries": stream.dfs.operations_retried,
    }
    for short, kind in ACCESS_KINDS.items():
        values["access." + short] = metrics.get_counter("db_access_total",
                                                        kind=kind)
    cache = nn.hint_cache.snapshot()
    for key in ("hits", "misses", "invalidations"):
        values["hint." + key] = cache[key]
    # the lock manager's counters, bridged in for an embedded engine
    merged = deployment.fs.metrics_registry()
    values["lock_wait_s"] = merged.get_gauge("ndb_lock_wait_seconds") or 0.0
    values["deadlocks"] = merged.get_gauge("ndb_lock_deadlocks") or 0.0
    values["server_s"] = (_server_seconds(deployment)
                          if deployment.server is not None else 0.0)
    return values


# -- the run -------------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: int = SETUPS, max_ops: Optional[int] = None,
        warmup_ops: Optional[int] = None) -> dict[str, Any]:
    """One benchmark run; returns the result object (plus ``detail``).

    ``max_ops`` caps every window at that many ops, and ``warmup_ops``
    replaces the WARMUP_S warm-up by that many ops, so two runs of one
    seed do exactly the same work (the tests use them)."""
    from workloads import WORKLOADS

    spec = WORKLOADS[workload](seed)
    setup_times: list[float] = []
    deployment = stream = None
    while len(setup_times) < setups or sum(setup_times) < SETUP_SECONDS:
        if deployment is not None:
            deployment.close()
            deployment = stream = None
            gc.collect()
        started = time.perf_counter()
        deployment, stream = spec.build()
        setup_times.append(time.perf_counter() - started)
    try:
        if warmup_ops is None:
            _run_window(stream, deployment, WARMUP_S)
        else:
            _run_window(stream, deployment, 3600.0, max_ops=warmup_ops)
        if trace:
            metrics, window = _traced(deployment, stream, seconds, max_ops,
                                      workload, spec.host_sensitivity)
        else:
            metrics, raw, window = _untraced(deployment, stream, seconds,
                                             max_ops, spec.host_sensitivity)
            raw["setup_s"] = statistics.median(setup_times)
            metrics["setup_s"] = raw["setup_s"] / window["slowdown"]
        problems = stream.rec.mismatches + spec.verify(deployment, stream)
    finally:
        deployment.close()
    units = _per_layer_units() if trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": window["attempted"],
        "failed": window["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": {"workload": workload, "seed": seed,
                   "namespace_seed": getattr(spec, "ns_seed", None),
                   "samples": {k: len(v)
                               for k, v in window["samples"].items()},
                   "setup_times_s": setup_times,
                   "slowdown": window["slowdown"],
                   "raw": None if trace else raw,
                   "errors": stream.rec.errors, "problems": problems[:10]},
    }


def _e2e(elapsed: float, cpu: float, samples: dict[str, list[float]],
         window: dict[str, Any]) -> dict[str, float]:
    completed = max(1, window["completed"])
    ms = 1000.0
    return {
        "ops_per_s": window["completed"] / elapsed,
        "read_p50_ms": _percentile(samples["read"], 50) * ms,
        "read_p95_ms": _percentile(samples["read"], 95) * ms,
        "write_p50_ms": _percentile(samples["write"], 50) * ms,
        "write_p95_ms": _percentile(samples["write"], 95) * ms,
        "subtree_p50_ms": _percentile(samples["subtree"], 50) * ms,
        "cpu_us_per_op": cpu / completed * 1e6,
        "success_ratio": window["completed"] / max(1, window["attempted"]),
    }


def _untraced(deployment, stream, seconds, max_ops, sensitivity):
    """One untraced window: (metrics at the reference host's speed,
    metrics as measured, the window)."""
    window = _run_window(stream, deployment, seconds, max_ops,
                         sensitivity=sensitivity)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if deployment.server_pid is not None:
        rss += _proc_peak_rss_mb(deployment.server_pid)
    scaled = window["scaled"]
    metrics = _e2e(scaled["elapsed"], scaled["cpu"], scaled["samples"],
                   window)
    raw = _e2e(window["elapsed"], window["cpu"], window["samples"], window)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    return metrics, raw, window


def _traced(deployment, stream, seconds, max_ops, workload, sensitivity):
    from layers import (CODEC, COMMIT, DAL, FRAGMENT, LAYERS, LOCKS,
                        METRICS, NAMENODE, RESOLVER, RPC, SUBTREE,
                        LayerTracer)
    from workloads import RUN_DIR

    # first half untraced: the baseline for trace.overhead_pct
    half = seconds / 2.0
    base, _, _ = _untraced(deployment, stream, half, max_ops, sensitivity)
    tracer = LayerTracer()
    before = _program_counters(deployment, stream)
    with tracer:
        window = _run_window(stream, deployment, half, max_ops,
                             tracer=tracer, sensitivity=sensitivity)
    after = _program_counters(deployment, stream)
    delta = {key: after[key] - before[key] for key in after}
    ops = max(1, window["completed"])
    us = 1e6 / ops
    totals = tracer.totals()

    def per_op(layer: str, kind: str = "incl") -> float:
        return totals[f"{kind}:{layer}"] * us

    scanned = totals["fragment_rows_scanned"]
    returned = totals["fragment_rows_returned"]
    hits, misses = delta["hint.hits"], delta["hint.misses"]
    namenode_us = per_op(NAMENODE)
    metrics_us = per_op(METRICS, "self")
    metrics = {
        "hopsfs.namenode.us_per_op": namenode_us,
        "hopsfs.client.retries_per_op": delta["retries"] / ops,
        "hopsfs.tx.resolve_us_per_op": per_op(RESOLVER),
        "hopsfs.hintcache.hit_ratio": hits / max(1.0, hits + misses),
        "hopsfs.hintcache.invalidations_per_op":
            delta["hint.invalidations"] / ops,
        "hopsfs.ops_subtree.us_per_op": per_op(SUBTREE),
        "hopsfs.ops_subtree.txs_per_op": totals["subtree_txs"] / ops,
        "dal.round_trips_per_op": delta["round_trips"] / ops,
        **{f"dal.access.{k}_per_op": delta["access." + k] / ops
           for k in ACCESS_KINDS},
        "dal.us_per_op": per_op(DAL),
        "dal.rows_read_per_op": delta["rows_read"] / ops,
        "dal.rows_written_per_op": delta["rows_written"] / ops,
        "dal.rows_locked_per_op": delta["rows_locked"] / ops,
        "ndb.fragment.rows_scanned_per_row_returned":
            scanned / returned if returned else scanned,
        "ndb.fragment.scan_us_per_op": per_op(FRAGMENT),
        "ndb.locks.acquire_us_per_op": per_op(LOCKS),
        "ndb.locks.wait_ms_per_op": delta["lock_wait_s"] * 1e3 / ops,
        "ndb.locks.deadlocks_per_op": delta["deadlocks"] / ops,
        "ndb.commit.us_per_op": per_op(COMMIT),
        "ndb.tx.commit_ratio":
            totals["txs_committed"] / max(1.0, totals["txs_begun"]),
        "rpc.frames_per_op": totals["rpc_frames"] / ops,
        "rpc.bytes_per_op": totals["rpc_bytes"] / ops,
        "rpc.call_us_per_op": per_op(RPC),
        "rpc.codec_us_per_op": per_op(CODEC),
        "rpc.server_us_per_op": delta["server_s"] * us,
        "metrics.us_per_op": metrics_us,
        "metrics.share": metrics_us / namenode_us if namenode_us else 0.0,
        "trace.overhead_pct":
            (window["scaled"]["cpu"] / ops * 1e6 / base["cpu_us_per_op"]
             - 1.0) * 100.0,
    }
    metrics.update({_self_metric(layer): per_op(layer, "self")
                    for layer in LAYERS})
    os.makedirs(RUN_DIR, exist_ok=True)
    tracer.write(os.path.join(RUN_DIR, f"spans-{workload}.json"))
    return metrics, window


def calibrate(workload: str, seed: int, seconds: float) -> float:
    """Measure a workload's sensitivity to the host's speed.

    Code does not slow alike in the host's slow phases: the speed probe
    slows about twice as much as the churn cycle does, so dividing churn
    times by the probe's whole slowdown over-corrects them. This runs
    one window of ``seconds``, cuts its segments into groups of
    CALIBRATION_GROUP_S, and returns the least-squares slope of
    log(wall seconds per op) on log(host slowdown) over the groups: the
    exponent each workload's ``host_sensitivity`` records.
    """
    from workloads import WORKLOADS

    spec = WORKLOADS[workload](seed)
    deployment, stream = spec.build()
    try:
        _run_window(stream, deployment, WARMUP_S)
        window = _run_window(stream, deployment, seconds)
    finally:
        deployment.close()
    xs: list[float] = []
    ys: list[float] = []
    group: list[tuple[float, int, float]] = []
    for segment in window["segments"]:
        group.append(segment)
        wall = sum(g[0] for g in group)
        ops = sum(g[1] for g in group)
        if wall >= CALIBRATION_GROUP_S and ops:
            xs.append(math.log(statistics.median(g[2] for g in group)))
            ys.append(math.log(wall / ops))
            group = []
    return statistics.linear_regression(xs, ys).slope


def _summary(result: dict[str, Any]) -> str:
    detail = result["detail"]
    lines = [f"workload={detail['workload']} seed={detail['seed']} "
             f"namespace_seed={detail['namespace_seed']} "
             f"samples={detail['samples']} "
             f"builds={len(detail['setup_times_s'])} "
             f"build_s(min/max)={min(detail['setup_times_s']):.4f}/"
             f"{max(detail['setup_times_s']):.4f} "
             f"slowdown={detail['slowdown']:.4f}"]
    raw = detail["raw"] or {}
    for name, entry in result["metrics"].items():
        line = f"  {name:48s} {entry['value']:14.4f} {entry['unit']}"
        if name in raw and raw[name] != entry["value"]:
            line += f"  (as measured: {raw[name]:.4f})"
        lines.append(line)
    for text in detail["errors"]:
        lines.append(f"  error: {text}")
    for text in detail["problems"]:
        lines.append(f"  CHECK FAILED: {text}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spotify", "churn", "churn-unix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true",
                        help="print the workload's host sensitivity "
                             "(see calibrate) instead of running it")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's source is missing "
              f"({os.path.relpath(SRC)}/repro); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _pin_to_one_cpu()
    if args.calibrate:
        slope = calibrate(args.workload, args.seed, args.seconds)
        print(f"{args.workload}: host sensitivity {slope:.3f}")
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_summary(result))
    result.pop("detail")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
