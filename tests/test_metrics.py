"""The observability subsystem: registry, tracing, exporters, wiring."""

import json
import threading

import pytest

from repro.dal.memory_driver import MemoryDriver
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs.hintcache import InodeHintCache
from repro.metrics import export
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import Tracer, add_event, span
from repro.util.clock import ManualClock
from repro.util.stats import ThroughputWindow

from tests.conftest import make_hopsfs


def make_memory_fs(num_namenodes=1, **config_overrides):
    config = HopsFSConfig(clock=ManualClock(), **config_overrides)
    return HopsFSCluster(num_namenodes=num_namenodes, num_datanodes=3,
                         config=config, driver=MemoryDriver())


# -- registry ------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.inc("ops_total", op="mkdir")
    reg.inc("ops_total", 2, op="mkdir")
    reg.inc("ops_total", op="rename")
    assert reg.get_counter("ops_total", op="mkdir") == 3
    assert reg.get_counter("ops_total", op="rename") == 1
    assert reg.get_counter("ops_total", op="unknown") == 0
    assert reg.sum_counters("ops_total") == 4

    reg.set_gauge("cache_size", 7)
    assert reg.get_gauge("cache_size") == 7
    assert reg.get_gauge("not_set") is None

    for v in (0.1, 0.2, 0.3):
        reg.observe("latency_seconds", v, op="stat")
    hist = reg.get_histogram("latency_seconds", op="stat")
    assert hist.count == 3
    assert hist.total == pytest.approx(0.6)
    assert hist.max == pytest.approx(0.3)
    assert hist.percentile(50.0) == pytest.approx(0.2)


def test_counters_reject_negative_increments():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("ops_total", -1)


def test_label_sets_are_distinct_and_order_insensitive():
    reg = MetricsRegistry()
    reg.inc("c", op="a", table="t")
    reg.inc("c", table="t", op="a")  # same metric, different kwarg order
    reg.inc("c", op="b", table="t")
    assert reg.get_counter("c", op="a", table="t") == 2
    assert reg.get_counter("c", op="b", table="t") == 1


def test_registry_thread_safety_under_concurrent_recording():
    reg = MetricsRegistry()
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work(i):
        barrier.wait()
        for n in range(per_thread):
            reg.inc("hits_total", op=f"op{n % 3}")
            reg.observe("lat_seconds", n * 1e-6)
            reg.set_gauge("last", n)

    workers = [threading.Thread(target=work, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert reg.sum_counters("hits_total") == threads * per_thread
    assert reg.get_histogram("lat_seconds").count == threads * per_thread


def test_registry_merge_sums_and_folds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("c", 2, op="x")
    b.inc("c", 3, op="x")
    b.inc("c", 1, op="y")
    a.set_gauge("g", 5)
    b.set_gauge("g", 7)
    for v in (0.1, 0.2):
        a.observe("h", v)
    for v in (0.3, 0.4):
        b.observe("h", v)
    a.merge(b)
    assert a.get_counter("c", op="x") == 5
    assert a.get_counter("c", op="y") == 1
    assert a.get_gauge("g") == 12
    hist = a.get_histogram("h")
    assert hist.count == 4
    assert hist.total == pytest.approx(1.0)
    assert hist.max == pytest.approx(0.4)


def test_histogram_merges_are_exact():
    """Bucket vectors add: merging in process or through snapshots gives
    the histogram of one registry that observed everything."""
    a, b, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for i in range(10000):
        value = 1e-6 * 1.002 ** i  # distinct, spanning ~29 octaves
        (a if i % 2 else b).observe("h", value)
        whole.observe("h", value)
    snapshots = [export.from_json(export.to_json(r, include_samples=True))
                 for r in (a, b)]
    rebuilt = export.registry_from_snapshot(
        export.merge_snapshots(snapshots))
    a.merge(b)
    expected = whole.get_histogram("h")
    for merged in (a.get_histogram("h"), rebuilt.get_histogram("h")):
        assert merged.count == 10000
        for p, value in expected.percentiles((50.0, 90.0, 99.0)).items():
            assert merged.percentile(p) == pytest.approx(value, rel=1e-12)
        assert merged.window(60)["p99"] == pytest.approx(
            expected.window(60)["p99"], rel=1e-12)
        assert ({i: c for i, (c, _) in merged.cells().items()}
                == {i: c for i, (c, _) in expected.cells().items()})


# -- satellite fixes: hint cache and throughput window -------------------------


def test_hintcache_clear_resets_counters_and_snapshot_is_consistent():
    cache = InodeHintCache(capacity=2)
    cache.put(1, "a", 10, 1, True)
    cache.get(1, "a")       # hit
    cache.get(1, "zz")      # miss
    cache.put(1, "b", 11, 1, True)
    cache.put(1, "c", 12, 1, True)  # evicts "a"
    snap = cache.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["evictions"] == 1
    assert snap["size"] == 2 and snap["capacity"] == 2
    assert snap["hit_rate"] == pytest.approx(0.5)
    cache.clear()
    snap = cache.snapshot()
    assert snap == {"size": 0, "capacity": 2, "hits": 0, "misses": 0,
                    "invalidations": 0, "evictions": 0, "hit_rate": 0.0}


def test_throughput_window_empty_series_contract():
    window = ThroughputWindow(width=1.0)
    assert window.series() == []
    assert window.series(end_time=5.0) == []  # still empty: nothing recorded
    window.record(2.5)
    window.record(2.6)
    assert window.series() == [(2.0, 2.0)]
    # zero-count buckets are filled up to end_time
    assert window.series(end_time=4.2) == [(2.0, 2.0), (3.0, 0.0), (4.0, 0.0)]


# -- tracing -------------------------------------------------------------------


def test_tracer_span_nesting_and_phases():
    tracer = Tracer()
    with tracer.trace("op"):
        with span("execute"):
            with span("resolve", depth=3):
                add_event("db.batched_pk", table="inodes")
            with span("commit"):
                pass
    trace, = tracer.recent()
    assert trace.op == "op"
    execute, = trace.spans("execute")
    assert [c.name for c in execute.children] == ["resolve", "commit"]
    assert trace.events("db.batched_pk")[0].labels == {"table": "inodes"}
    phases = trace.phases()
    assert set(phases) == {"execute", "resolve", "commit"}
    # execute contributes self time: phases never double count
    assert phases["execute"] + phases["resolve"] + phases["commit"] \
        <= trace.duration + 1e-9


def test_tracer_sampling_and_ring_bound():
    tracer = Tracer(ring_size=4, sample_every=2)
    for _ in range(10):
        with tracer.trace("op"):
            pass
    assert tracer.traces_started == 5
    assert tracer.traces_dropped == 5
    assert len(tracer.recent()) == 4  # ring stays bounded
    assert len(Tracer(sample_every=0).trace("op").__enter__() or []) == 0


def test_tracer_slow_log_and_registry_fold():
    reg = MetricsRegistry()
    tracer = Tracer(registry=reg, slow_threshold=0.0)  # everything is slow
    with tracer.trace("mkdir"):
        with span("execute"):
            pass
    assert [t.op for t in tracer.slow_ops()] == ["mkdir"]
    assert reg.get_counter("hopsfs_slow_ops_total", op="mkdir") == 1
    hist = reg.get_histogram("hopsfs_phase_seconds", phase="execute", op="mkdir")
    assert hist is not None
    # the new op label means no un-labelled series exists any more
    assert reg.get_histogram("hopsfs_phase_seconds", phase="execute") is None


def test_span_is_noop_outside_a_trace():
    with span("execute") as s:
        assert s is None
    add_event("orphan")  # must not raise


# -- wiring: real operations on the in-memory DAL ------------------------------


def test_mkdir_and_rename_produce_ordered_phase_spans():
    fs = make_memory_fs(trace_sample_every=1)
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b")
    nn.create("/a/b/f")
    nn.rename("/a/b/f", "/a/b/g")

    traces = {t.op: t for t in nn.tracer.recent()}
    assert {"mkdirs", "create", "rename"} <= set(traces)

    rename = traces["rename"]
    # attempt 0 has no "execute" span, so phase spans sit on the root
    names = [c.name for c in rename.root.children]
    # resolve comes before the strongest-lock re-read, which comes before
    # any database work of the operation body; commit ends the trace
    assert names.index("resolve") < names.index("lock")
    assert names[-1] == "commit"
    # rename resolves both source and destination paths
    assert len(rename.spans("resolve")) == 2
    # per-op metrics recorded alongside the trace
    assert nn.metrics.get_counter("fs_op_total", op="rename") == 1
    hist = nn.metrics.get_histogram("fs_op_seconds", op="rename")
    assert hist is not None and hist.count == 1


def test_warm_cache_resolve_emits_exactly_one_batched_pk_span():
    fs = make_memory_fs(trace_sample_every=1)
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b/c")
    nn.create("/a/b/c/f")
    nn.get_file_info("/a/b/c/f")  # warm the hint cache fully

    nn.get_file_info("/a/b/c/f")
    trace = nn.tracer.recent(1)[0]
    assert trace.op == "stat"
    resolve, = trace.spans("resolve")
    assert resolve.labels["method"] == "batched"
    batched = [e for e in trace.events("db.batched_pk")
               if e.labels["table"] == "inodes"]
    assert len(batched) == 1  # the one batched read of paper §5.1


def test_db_access_kinds_bridge_into_registry():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/x/y")
    nn.get_file_info("/x/y")
    assert nn.metrics.get_counter("db_access_total", kind="batched_pk") > 0
    assert nn.metrics.get_counter("db_round_trips_total") > 0
    reg = nn.metrics_registry()
    assert reg.get_gauge("hint_cache_hit_rate") is not None
    assert reg.get_gauge("hint_cache_size") >= 1


def test_subtree_delete_records_size_and_latency_metrics():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/big/sub")
    nn.create("/big/f1")
    nn.create("/big/sub/f2")
    assert nn.delete("/big", recursive=True)
    hist = nn.metrics.get_histogram("subtree_op_seconds", op="delete")
    assert hist is not None and hist.count == 1
    # /big + /big/sub + 2 files
    assert nn.metrics.get_counter("subtree_op_inodes_total", op="delete") == 4


def test_sampling_disables_traces_but_keeps_metrics():
    fs = make_memory_fs(trace_sample_every=0)
    nn = fs.namenodes[0]
    nn.mkdirs("/only/metrics")
    assert nn.tracer.recent() == []
    assert nn.metrics.get_counter("fs_op_total", op="mkdirs") == 1


# -- cluster aggregation -------------------------------------------------------


def test_cluster_registry_merges_namenodes_and_recomputes_hit_rate():
    fs = make_memory_fs(num_namenodes=2)
    nn1, nn2 = fs.namenodes
    nn1.mkdirs("/a")
    nn2.mkdirs("/b")
    merged = fs.metrics_registry()
    total = (nn1.metrics.get_counter("fs_op_total", op="mkdirs")
             + nn2.metrics.get_counter("fs_op_total", op="mkdirs"))
    assert merged.get_counter("fs_op_total", op="mkdirs") == total == 2
    hit_rate = merged.get_gauge("hint_cache_hit_rate")
    assert 0.0 <= hit_rate <= 1.0  # recomputed, not a sum of per-NN rates


def test_cluster_snapshot_includes_ndb_lock_gauges():
    fs = make_hopsfs()
    fs.any_namenode().mkdirs("/locked")
    snap = fs.metrics_snapshot()
    gauges = {g["name"] for g in snap["gauges"]}
    assert {"ndb_lock_waits", "ndb_lock_deadlocks", "ndb_lock_timeouts",
            "ndb_lock_wait_seconds", "ndb_lock_table_size"} <= gauges
    assert snap["meta"]["namenodes"] == 2


# -- exporters -----------------------------------------------------------------


def test_json_snapshot_round_trip_preserves_counters():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/r/s")
    nn.create("/r/s/f")
    reg = nn.metrics_registry()
    data = export.from_json(export.to_json(reg, meta={"namenode": nn.nn_id}))
    parsed = export.snapshot_counters(data)
    for counter in reg.counters():
        assert parsed[(counter.name, counter.labels)] == counter.value
    assert len(parsed) == len(list(reg.counters()))
    assert data["meta"]["namenode"] == nn.nn_id
    # histograms keep headline stats
    by_name = {(h["name"], tuple(sorted(h["labels"].items())))
               for h in data["histograms"]}
    assert ("fs_op_seconds", (("op", "mkdirs"),)) in by_name


def test_from_json_rejects_unknown_versions():
    with pytest.raises(ValueError):
        export.from_json(json.dumps({"version": 99}))


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.inc("fs_op_total", 3, op="mkdir")
    reg.set_gauge("cache_size", 4)
    reg.observe("fs_op_seconds", 0.25, op="mkdir")
    text = export.prometheus_text(reg)
    assert "# TYPE repro_fs_op_total counter" in text
    assert 'repro_fs_op_total{op="mkdir"} 3' in text
    assert "# TYPE repro_cache_size gauge" in text
    assert "# TYPE repro_fs_op_seconds summary" in text
    assert 'repro_fs_op_seconds{op="mkdir",quantile="0.5"} 0.25' in text
    assert 'repro_fs_op_seconds_count{op="mkdir"} 1' in text


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.inc("c", err='boom "quoted"\nnewline')
    text = export.prometheus_text(reg)
    assert r'err="boom \"quoted\"\nnewline"' in text


def test_summary_renders_all_sections():
    fs = make_memory_fs()
    fs.namenodes[0].mkdirs("/t")
    text = export.summary(fs.metrics_registry())
    assert "latency (milliseconds)" in text
    assert "fs_op_seconds{op=mkdirs}" in text
    assert "counters" in text and "gauges" in text
    assert export.summary(MetricsRegistry()) == "(no metrics recorded)"


# -- CLI -----------------------------------------------------------------------


def test_cli_metrics_command():
    from repro.cli import HopsShell

    shell = HopsShell(cluster=make_hopsfs())
    shell.execute("mkdir /cli")
    assert "fs_op_seconds{op=mkdirs}" in shell.execute("metrics")
    prom = shell.execute("metrics prom")
    assert "# TYPE repro_fs_op_total counter" in prom
    data = json.loads(shell.execute("metrics json"))
    assert data["version"] == export.SNAPSHOT_VERSION
    assert shell.execute("metrics slow") == "(no slow operations)"
    assert "usage error" in shell.execute("metrics bogus")
