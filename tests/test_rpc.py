"""RPC subsystem tests: wire-protocol units plus in-thread server
integration.

Everything here runs the real socket stack (``NDBServer`` accept loop,
``RemoteDriver`` pool) inside one process; the subprocess deployment —
supervisor spawn, SIGTERM, kill -9 — is covered by
``test_rpc_process.py``.
"""

import threading
import time

import pytest

from repro.dal import RemoteDriver
from repro.errors import (
    CommitAmbiguousError,
    ConnectionClosedError,
    DuplicateKeyError,
    ProtocolError,
    RemoteCallError,
    RequestTimeoutError,
    ServerShutdownError,
    TransactionAbortedError,
)
from repro.metrics import export
from repro.ndb import AccessKind, LockMode, NDBConfig, TableSchema
from repro.ndb.stats import AccessEvent, AccessStats
from repro.rpc import ClientConn, NDBServer, dial, protocol

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

CONFIG = NDBConfig(num_datanodes=4, replication=2, lock_timeout=0.5)


# -- protocol units ------------------------------------------------------------


def test_frame_roundtrip():
    message = {"id": 7, "method": "ping", "params": {"x": [1, 2]}}
    data = protocol.encode_frame(message)
    length = protocol.decode_length(data[:4])
    assert length == len(data) - 4
    assert protocol.decode_payload(data[4:]) == message


def test_frame_length_limit():
    huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        protocol.decode_length(huge)


def test_value_codec_bytes_and_tuples():
    value = {"pk": (1, "a"), "blob": b"\x00\xffbinary"}
    decoded = protocol.decode_value(protocol.encode_value(value))
    assert decoded["blob"] == b"\x00\xffbinary"
    assert decoded["pk"] == [1, "a"]  # tuples travel as lists


def test_typed_error_roundtrip():
    err = protocol.error(3, DuplicateKeyError("kv:(1,)"))["error"]
    with pytest.raises(DuplicateKeyError, match="kv"):
        protocol.raise_remote(err)


def test_unknown_error_type_degrades_to_remote_call_error():
    with pytest.raises(RemoteCallError, match="exotic"):
        protocol.raise_remote({"type": "SomeExoticError",
                               "message": "exotic failure"})


def test_stats_delta_ships_counters_only():
    stats = AccessStats(keep_events=True)
    stats.record(AccessEvent(kind=AccessKind.PK, table="kv",
                             partitions=(1,), nodes=(0,), coordinator=0,
                             rows=1, locked=False, write=False,
                             node_groups=(0,)))
    stats.record(AccessEvent(kind=AccessKind.COMMIT, table="*",
                             partitions=(1,), nodes=(0, 1), coordinator=0,
                             rows=0, locked=False, write=False,
                             node_groups=(0,)))
    stats.rows_locked += 2
    first = protocol.stats_delta(stats)
    # counters and by-kind counts only: no event ever rides the wire
    assert first == {"round_trips": 2, "rows_read": 1, "rows_locked": 2,
                     "remote_partition_hops": 1,
                     "by_kind": {"pk": 1, "commit": 1}}

    # the tally was drained: nothing new happened, the next delta is empty
    assert protocol.stats_delta(stats) == {}

    mirror = AccessStats(keep_events=True)
    mirror.record(AccessEvent(kind=AccessKind.PK, table="kv",
                              partitions=(0,), nodes=(0,), coordinator=0,
                              rows=3))
    protocol.apply_stats_delta(mirror, first)
    assert (mirror.round_trips, mirror.rows_read, mirror.rows_written,
            mirror.rows_locked, mirror.remote_partition_hops) == (3, 4, 0,
                                                                  2, 1)
    assert mirror.by_kind == {AccessKind.PK: 2, AccessKind.COMMIT: 1}
    assert len(mirror.events) == 1  # the fold adds counters, not events


# -- in-thread server integration ----------------------------------------------


@pytest.fixture
def server():
    with NDBServer(config=CONFIG) as srv:
        yield srv


@pytest.fixture
def driver(server):
    drv = RemoteDriver(server.host, server.port, timeout=5.0,
                       reconnect_backoff=0.01)
    drv.create_table(KV)
    yield drv
    drv.close()


def _fill(driver, n=8):
    session = driver.session()

    def seed(tx):
        for i in range(n):
            tx.insert("kv", {"k": i, "v": i * 10})

    session.run(seed)
    return session


def test_hello_rejects_protocol_mismatch(server):
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    try:
        with pytest.raises(ProtocolError, match="protocol"):
            conn.call("hello", {"protocol": 99})
    finally:
        conn.close()


def test_request_timeout_poisons_only_that_connection(server):
    drv = RemoteDriver(server.host, server.port, timeout=0.4,
                       reconnect_backoff=0.01)
    try:
        with pytest.raises(RequestTimeoutError):
            drv.ping(delay=2.0)
        assert drv.ping() == "pong"  # fresh conn; the pool did not jam
    finally:
        drv.close()


def test_read_your_own_writes_and_locks(driver):
    _fill(driver)
    session = driver.session()

    def fn(tx):
        row = tx.read("kv", (3,), lock=LockMode.EXCLUSIVE)
        tx.update("kv", (3,), {"v": row["v"] + 1})
        return tx.read("kv", (3,))["v"]

    assert session.run(fn) == 31
    assert session.stats.rows_locked >= 1


def test_pipelined_write_error_surfaces_before_commit(server):
    drv = RemoteDriver(server.host, server.port, timeout=5.0,
                       pipeline_writes=True)
    drv.create_table(KV)
    try:
        _fill(drv, n=2)
        session = drv.session()

        def dup(tx):
            tx.insert("kv", {"k": 0, "v": 99})  # pipelined; k=0 exists

        with pytest.raises(DuplicateKeyError):
            session.run(dup)
        # the duplicate never committed
        assert session.run(lambda tx: tx.read("kv", (0,))["v"]) == 0
    finally:
        drv.close()


def test_pipelined_stats_deltas_are_folded(server):
    drv = RemoteDriver(server.host, server.port, timeout=5.0,
                       pipeline_writes=True)
    drv.create_table(KV)
    try:
        session = drv.session()

        def fill(tx):
            for i in range(6):
                tx.insert("kv", {"k": i, "v": i})

        session.run(fill)
        # every pipelined insert X-locked its row; the deltas rode back
        # on the pipelined responses and the commit response
        assert session.stats.rows_locked >= 6
        assert session.stats.rows_written == 6
        assert session.stats.count(AccessKind.COMMIT) == 1
    finally:
        drv.close()


def test_conn_loss_mid_transaction_is_a_retryable_abort(driver):
    _fill(driver)
    session = driver.session()
    tx = session.begin()
    tx.write("kv", {"k": 100, "v": 1})
    tx._conn.close()  # simulate the server connection dying mid-tx
    with pytest.raises(TransactionAbortedError):
        tx.read("kv", (0,))
    # the driver recovered: a fresh transaction on a fresh conn works
    assert session.run(lambda t: t.read("kv", (0,))["v"]) == 0


def test_commit_time_conn_loss_is_ambiguous_and_not_retried(driver):
    _fill(driver)
    session = driver.session()

    def fn(tx):
        tx.write("kv", {"k": 200, "v": 5})
        # sever the raw socket without marking the conn closed, so the
        # commit send itself hits the dead connection
        tx._conn._conn._sock.close()

    with pytest.raises(CommitAmbiguousError):
        session.run(fn)
    assert session.retries_used == 0  # ambiguity must never auto-retry


def test_idempotent_reads_retry_across_reconnect(server, driver):
    _fill(driver)
    assert driver.table_size("kv") == 8
    # sever every server-side connection under the client's pool
    for state in list(server._states):
        state.conn.close()
    assert driver.table_size("kv") == 8  # idempotent: redialed silently
    for state in list(server._states):
        state.conn.close()
    with pytest.raises(ConnectionClosedError):
        driver.complete_epoch()  # non-idempotent: fails fast


def test_draining_server_rejects_new_transactions(server, driver):
    _fill(driver)
    server._draining = True
    session = driver.session()
    with pytest.raises(ServerShutdownError):
        session.run(lambda tx: tx.read("kv", (0,)))
    server._draining = False
    assert session.run(lambda tx: tx.read("kv", (0,))["v"]) == 0


def test_refused_begins_return_their_connection_to_the_pool(server,
                                                           driver):
    _fill(driver)
    server._draining = True
    session = driver.session()
    dials = driver.reconnects
    for _ in range(5):
        with pytest.raises(ServerShutdownError):
            session.begin()
    server._draining = False
    assert session.run(lambda tx: tx.read("kv", (0,))["v"]) == 0
    # a typed refusal leaves the connection healthy: no redial needed
    assert driver.reconnects == dials


def test_graceful_stop_drains_in_flight_transaction(server, driver):
    _fill(driver)
    session = driver.session()
    tx = session.begin()
    tx.write("kv", {"k": 300, "v": 42})

    stopper = threading.Thread(target=server.stop)
    stopper.start()
    try:
        time.sleep(0.15)  # server is now draining, waiting on our tx
        tx.commit()  # still inside the drain window: must succeed
    finally:
        stopper.join(timeout=10)
    assert not stopper.is_alive()


def test_shutdown_rpc_stops_the_server(server, driver):
    driver.shutdown_server()
    deadline = time.time() + 5
    while not server.stop_requested.is_set() and time.time() < deadline:
        time.sleep(0.01)
    assert server.stop_requested.is_set()


def test_metrics_snapshots_merge_across_servers():
    with NDBServer(config=CONFIG, name="ndb-a") as a, \
         NDBServer(config=CONFIG, name="ndb-b") as b:
        snaps = []
        for srv in (a, b):
            drv = RemoteDriver(srv.host, srv.port, timeout=5.0)
            drv.create_table(KV)
            _fill(drv, n=4)
            snaps.append(drv.metrics_snapshot())
            drv.close()

    merged = export.merge_snapshots(snaps)

    def requests(snap):
        return sum(c["value"] for c in snap["counters"]
                   if c["name"] == "rpc_requests_total")

    want = sum(requests(s) for s in snaps)
    assert want > 0 and requests(merged) == want
    assert merged["meta"]["merged_from"] == 2
    # pooled histogram samples: merged count is the sum of the parts
    def observations(snap):
        return sum(h["count"] for h in snap["histograms"]
                   if h["name"] == "rpc_request_seconds")

    assert observations(merged) == sum(observations(s) for s in snaps) > 0


def test_kill_datanode_mid_commit_storm(driver):
    """Datanode failover under a concurrent commit storm, over RPC.

    Worker threads hammer transactions while the coordinator's node is
    killed and restarted through the admin surface; every op must
    eventually commit (conn-level aborts retry like engine aborts) and
    the replicas must end identical.
    """
    _fill(driver)
    errors: list[Exception] = []
    done = threading.Event()

    def worker(tid: int) -> None:
        session = driver.session()
        try:
            for i in range(15):
                key = 1000 + tid * 100 + i

                def fn(tx, key=key, i=i):
                    tx.read("kv", (tid,))
                    tx.write("kv", {"k": key, "v": i})

                session.run(fn, retries=10)
        except Exception as exc:  # pragma: no cover - asserted below
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    driver.kill_node(1)
    time.sleep(0.1)
    driver.restart_node(1)
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert sorted(driver.live_nodes()) == [0, 1, 2, 3]

    # replica identity: every replica of every partition has the same rows
    for pid, replicas in driver.replica_snapshots("kv").items():
        assert len(replicas) >= 2
        for replica in replicas[1:]:
            assert replica == replicas[0], f"partition {pid} diverged"


def test_unix_socket_roundtrip(tmp_path):
    """AF_UNIX deployment: full tx cycle plus stale-socket cleanup."""
    path = str(tmp_path / "ndb.sock")
    with open(path, "w", encoding="utf-8"):
        pass  # stale file from a "dead server"; start() must replace it
    with NDBServer(config=CONFIG, unix_path=path) as srv:
        drv = RemoteDriver(unix_path=path, timeout=5.0,
                           reconnect_backoff=0.01)
        try:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 1, "v": 10}))
            assert session.run(lambda tx: tx.read("kv", (1,)))["v"] == 10
            assert path in drv.engine_name
        finally:
            drv.close()
        assert srv.unix_path == path
    import os
    assert not os.path.exists(path)  # stop() unlinks the socket file
