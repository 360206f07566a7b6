"""Process-deployment tests: real ndb-server subprocesses.

These spawn ``python -m repro serve`` children through the supervisor
and exercise the full deployment story — READY handshake, graceful
SIGTERM shutdown with observability persistence, kill -9 plus respawn,
and a kill-datanode-mid-commit failover storm over the wire.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.dal import RemoteDriver
from repro.ndb import TableSchema
from repro.rpc import ServerPool, Supervisor

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

SERVER_OPTIONS = dict(datanodes=4, replication=2, lock_timeout=0.5)


def _driver(handle_or_addr, **kwargs):
    host, port = (handle_or_addr if isinstance(handle_or_addr, tuple)
                  else (handle_or_addr.host, handle_or_addr.port))
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("reconnect_backoff", 0.02)
    return RemoteDriver(host, port, **kwargs)


def test_supervisor_spawns_and_serves():
    with Supervisor() as sup:
        handle = sup.spawn("ndb-test", **SERVER_OPTIONS)
        assert handle.alive and handle.port > 0 and handle.pid > 0
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 1, "v": 2}))
            assert session.run(lambda tx: tx.read("kv", (1,))["v"]) == 2
            assert "remote(" in drv.engine_name
    assert not handle.alive  # context exit stopped the child


def test_sigterm_exits_cleanly_and_persists_observability(tmp_path):
    metrics_path = tmp_path / "ndb-m.metrics.json"
    flight_dir = tmp_path / "flight"
    with Supervisor() as sup:
        handle = sup.spawn("ndb-m", metrics_json=str(metrics_path),
                           flight_dir=str(flight_dir), **SERVER_OPTIONS)
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            for i in range(5):
                session.run(lambda tx, i=i:
                            tx.write("kv", {"k": i, "v": i}))
        returncode = handle.stop()
    assert returncode == 0  # SIGTERM -> graceful drain -> clean exit

    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["meta"]["server"] == "ndb-m"
    assert snapshot["meta"]["pid"] == handle.pid
    requests = sum(c["value"] for c in snapshot["counters"]
                   if c["name"] == "rpc_requests_total")
    assert requests >= 5
    # the snapshot is the mergeable kind: histograms carry bucket state
    assert any(h.get("state") for h in snapshot["histograms"])
    # per-process flight-recorder dump directory
    dumps = list(flight_dir.glob("*.json"))
    assert dumps, "no flight dump written on shutdown"


def test_kill9_then_ensure_alive_respawns():
    with Supervisor() as sup:
        handle = sup.spawn("ndb-k", **SERVER_OPTIONS)
        first_pid, first_port = handle.pid, handle.port
        os.kill(handle.pid, signal.SIGKILL)
        deadline = time.time() + 10
        while handle.alive and time.time() < deadline:
            time.sleep(0.05)
        assert not handle.alive and handle.returncode != 0

        assert sup.ensure_all_alive() == ["ndb-k"]
        assert handle.alive and handle.restarts == 1
        assert handle.pid != first_pid
        # a fresh child is a fresh empty engine on a fresh port; the
        # client just reconnects and rebuilds
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 7, "v": 7}))
            assert drv.table_size("kv") == 1
        assert handle.port != first_port or True  # port may be reused


def test_server_pool_no_leaked_processes():
    with ServerPool(2, name_prefix="pool", **SERVER_OPTIONS) as pool:
        assert len(pool) == 2
        pids = [handle.pid for handle in pool]
        for host, port in pool.addresses:
            with _driver((host, port)) as drv:
                assert drv.is_available()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # exited and reaped: no leaked children


def test_kill_datanode_mid_commit_storm_in_process_mode():
    """The ISSUE's failover scenario, against a real server process."""
    with Supervisor() as sup:
        handle = sup.spawn("ndb-f", **SERVER_OPTIONS)
        with _driver(handle) as drv:
            drv.create_table(KV)
            seed = drv.session()
            seed.run(lambda tx: [tx.insert("kv", {"k": i, "v": i})
                                 for i in range(8)])

            errors: list[Exception] = []

            def worker(tid: int) -> None:
                session = drv.session()
                try:
                    for i in range(12):
                        key = 1000 + tid * 100 + i

                        def fn(tx, key=key, i=i):
                            tx.read("kv", (tid,))
                            tx.write("kv", {"k": key, "v": i})

                        session.run(fn, retries=10)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            drv.kill_node(2)  # mid-storm datanode failure
            time.sleep(0.1)
            drv.restart_node(2)
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert sorted(drv.live_nodes()) == [0, 1, 2, 3]
            assert drv.table_size("kv") == 8 + 3 * 12

            # replica identity across the wire after failover + recovery
            for pid, replicas in drv.replica_snapshots("kv").items():
                for replica in replicas[1:]:
                    assert replica == replicas[0], f"partition {pid} diverged"
