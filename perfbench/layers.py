"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions of each layer for the
length of one traced window and restores them afterwards. Every wrapped
call records a span — name, start, end, parent span and the benchmark
op it served — in memory; :meth:`LayerTracer.write` saves them once the
window is over. A few wrappers also count what the call did (frames
sent, bytes encoded, rows a fragment scan walked).

Spans nest through a per-thread stack. A span that opens on a thread
that is not the benchmark client (a subtree-protocol worker) has no
stack of its own; it is parented to the subtree-op span in flight.

A layer's self time is its spans' duration minus the part of each
span's interval that its child spans cover; it is summed as each span
ends, so the aggregates cover every span even when only the first
``MAX_KEPT_SPANS`` are kept for the dump.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

NAMENODE = "hopsfs.namenode"
SUBTREE = "hopsfs.ops_subtree"
RESOLVER = "hopsfs.tx"
DAL = "dal"
LOCKS = "ndb.locks"
FRAGMENT = "ndb.fragment"
COMMIT = "ndb.commit"
RPC = "rpc"
CODEC = "rpc.codec"
METRICS = "metrics"

LAYERS = (NAMENODE, SUBTREE, RESOLVER, DAL, LOCKS, FRAGMENT, COMMIT, RPC,
          CODEC, METRICS)

_DAL_TX_METHODS = ("read", "read_batch", "ppis", "index_scan", "full_scan",
                   "insert", "update", "write", "delete", "commit", "abort")


def _targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, layer) for every function the tracer wraps.

    Owners are classes, or modules for module-level functions.
    """
    from repro.dal import remote_driver
    from repro.hopsfs import namenode, tx
    from repro.metrics import flightrecorder, registry, tracing
    from repro.ndb import fragment, locks, session, stats, transaction
    from repro.rpc import conn, protocol

    nn = namenode.NameNode
    targets = [(nn, name, NAMENODE) for name in (
        "mkdirs", "create", "get_file_info", "get_block_locations",
        "list_status", "content_summary", "add_block", "block_received",
        "complete", "delete", "rename", "set_permission", "set_owner",
        "set_replication")]
    targets += [(nn, name, SUBTREE) for name in (
        "delete_subtree", "chmod_subtree", "chown_subtree", "move_subtree")]
    targets.append((tx.PathResolver, "resolve", RESOLVER))
    for cls in (transaction.Transaction, remote_driver.RemoteTransaction):
        targets += [(cls, name, DAL) for name in _DAL_TX_METHODS]
    targets += [(session.Session, "begin", DAL),
                (remote_driver.RemoteSession, "begin", DAL)]
    targets += [(locks.LockManager, "acquire", LOCKS),
                (locks.LockManager, "acquire_many", LOCKS),
                (fragment.Fragment, "scan", FRAGMENT),
                (transaction.Transaction, "_commit_inner", COMMIT)]
    targets += [(conn.ClientConn, name, RPC)
                for name in ("call", "call_traced", "send_nowait", "drain")]
    targets += [(conn.FrameConn, "send", RPC), (conn.FrameConn, "recv", RPC),
                (protocol, "encode_frame", CODEC),
                (protocol, "decode_payload", CODEC)]
    targets += [(registry.CounterMetric, "inc", METRICS),
                (registry.GaugeMetric, "set", METRICS),
                (registry.HistogramMetric, "observe", METRICS),
                (registry.MetricsRegistry, "inc", METRICS),
                (registry.MetricsRegistry, "observe", METRICS),
                (registry.MetricsRegistry, "set_gauge", METRICS),
                (stats.AccessStats, "record", METRICS),
                (stats.AccessStats, "merge", METRICS),
                (tracing.Tracer, "trace", METRICS),
                (tracing.Span, "__enter__", METRICS),
                (tracing.Span, "__exit__", METRICS),
                (tracing.Trace, "__enter__", METRICS),
                (tracing.Trace, "__exit__", METRICS),
                (tracing, "span", METRICS),
                (tracing, "attempt_span", METRICS),
                (tracing, "add_event", METRICS),
                (tracing, "record_access", METRICS),
                (flightrecorder.FlightRecorder, "begin", METRICS),
                (flightrecorder.FlightRecorder, "end", METRICS)]
    return targets


#: spans kept for the dump; aggregates cover every span regardless
MAX_KEPT_SPANS = 200_000


class _Open:
    """A span in flight: the intervals its finished children covered."""

    __slots__ = ("sid", "layer", "children")

    def __init__(self, sid: int, layer: str) -> None:
        self.sid = sid
        self.layer = layer
        self.children: list[tuple[float, float]] = []


class _Frame(threading.local):
    """Per-thread span stack, the op the thread serves, and the thread's
    own totals (merged when the window ends, so no two threads ever
    update the same number)."""

    def __init__(self, totals: list) -> None:
        self.stack: list[_Open] = []
        self.op: Any = None
        self.client = False
        self.subtree = 0
        self.totals: dict[str, float] = defaultdict(float)
        totals.append(self.totals)


class LayerTracer:
    """Wraps every layer's public functions while installed (a context
    manager) and sums span times and counts per layer."""

    def __init__(self) -> None:
        self._totals: list[dict[str, float]] = []
        self._frame = _Frame(self._totals)
        self._ids = itertools.count(1)
        self._names: list[tuple[str, str]] = []   # (span name, layer)
        #: the first MAX_KEPT_SPANS spans:
        #: (span id, name index, start, end, parent id, op id)
        self.spans: list[tuple] = []
        #: innermost subtree-op span in flight: (span, op id)
        self._anchor: Optional[tuple[_Open, Any]] = None
        self._restore: list[Callable[[], None]] = []

    # -- op attribution --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Called by the client thread before each timed op."""
        frame = self._frame
        frame.client = True
        frame.op = op_id

    def count(self, name: str, n: float = 1.0) -> None:
        self._frame.totals[name] += n

    def in_subtree(self) -> bool:
        frame = self._frame
        return frame.subtree > 0 or (not frame.client
                                     and self._anchor is not None)

    def totals(self) -> dict[str, float]:
        """Every thread's counts and layer seconds, summed. Layer times
        are ``incl:<layer>`` (the layer's outermost spans) and
        ``self:<layer>`` (span time its child spans do not cover)."""
        merged: dict[str, float] = defaultdict(float)
        for part in self._totals:
            for key, value in part.items():
                merged[key] += value
        return merged

    # -- install / uninstall ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in _targets():
            self._patch(owner, attr, layer)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        self._names.append((label, layer))
        wrapper = self._wrapper(original, len(self._names) - 1, layer,
                                _COUNTERS.get(label))
        if isinstance(owner, type):
            had_own = attr in owner.__dict__
            setattr(owner, attr, wrapper)

            def restore(owner=owner, attr=attr, original=original,
                        had_own=had_own) -> None:
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self._restore.append(restore)
            return
        # a module function: also rebind every ``from x import f`` copy
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("repro") and m is not None
                   and getattr(m, attr, None) is original]
        for module in modules:
            setattr(module, attr, wrapper)

        def restore_modules(modules=modules, attr=attr,
                            original=original) -> None:
            for module in modules:
                setattr(module, attr, original)
        self._restore.append(restore_modules)

    def _wrapper(self, fn: Callable, name_index: int, layer: str,
                 count: Optional[Callable]) -> Callable:
        tracer = self
        frame = self._frame
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter
        anchor = layer == SUBTREE
        own_key, incl_key = "self:" + layer, "incl:" + layer

        def traced(*args, **kwargs):
            stack = frame.stack
            if stack:
                parent, op = stack[-1], frame.op
            elif frame.client:
                parent, op = None, frame.op
            else:
                parent, op = tracer._anchor or (None, None)
            me = _Open(next(ids), layer)
            stack.append(me)
            if anchor:
                saved = tracer._anchor
                tracer._anchor = (me, op)
                frame.subtree += 1
            started = perf()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, result)
                return result
            finally:
                ended = perf()
                stack.pop()
                if anchor:
                    tracer._anchor = saved
                    frame.subtree -= 1
                took = ended - started
                totals = frame.totals
                totals[own_key] += took - _covered(started, ended,
                                                   me.children)
                if parent is None:
                    totals[incl_key] += took
                else:
                    if parent.layer != layer:
                        totals[incl_key] += took
                    parent.children.append((started, ended))
                if len(spans) < MAX_KEPT_SPANS:
                    spans.append((me.sid, name_index, started, ended,
                                  parent.sid if parent else None, op))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- output -------------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Save the kept spans: a name table plus one row per span with
        times in microseconds from the first span's start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, n, round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), parent, op]
                for sid, n, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": [list(n) for n in self._names],
                       "columns": ["id", "name", "start_us", "end_us",
                                   "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    if not intervals:
        return 0.0
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


# -- counting wrappers ---------------------------------------------------------------------


def _count_scan(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("fragment_rows_scanned", len(args[0]))
    tracer.count("fragment_rows_returned", len(result))


def _count_begin(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("txs_begun")
    if tracer.in_subtree():
        tracer.count("subtree_txs")


def _count_commit(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("txs_committed")


def _count_frame(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("rpc_frames")


def _count_encoded(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("rpc_bytes", len(result))


def _count_decoded(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.count("rpc_bytes", len(args[0]))


_COUNTERS: dict[str, Callable] = {
    "Fragment.scan": _count_scan,
    "Session.begin": _count_begin,
    "RemoteSession.begin": _count_begin,
    "Transaction.commit": _count_commit,
    "RemoteTransaction.commit": _count_commit,
    "FrameConn.send": _count_frame,
    "repro.rpc.protocol.encode_frame": _count_encoded,
    "repro.rpc.protocol.decode_payload": _count_decoded,
}
