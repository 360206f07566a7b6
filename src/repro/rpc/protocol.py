"""Wire protocol for the DAL RPC subsystem.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by the UTF-8 JSON payload. JSON keeps the protocol debuggable
with ``tcpdump``/``socat`` and needs no third-party codec; the framing
gives cheap message boundaries and request pipelining (a client may send
many requests before reading any response — the server handles each
connection's requests strictly in order and responds in order, so
responses match up by ``id`` even under pipelining).

Requests and responses::

    {"id": 7, "method": "tx", "params": {...}, "trace": {"id": "41"}}
    {"id": 7, "ok": true,  "result": {...}, "trace": {...}}
    {"id": 7, "ok": false, "error": {"type": "DeadlockError", "message": "..."}}

The ``trace`` fields are optional on both sides (either end may omit
them with no protocol change — absent means unsampled). A request-side
``trace`` envelope carries the client's ``trace_id`` and marks the
request as sampled; the server then binds a per-request trace so engine
spans (``commit.participant``, ``lock_wait``, ``shard_fetch``,
``log_flush``) record under the client's operation, and the response's
``trace`` payload ships them back — the span tree in ``to_dict`` form
plus the server's ``perf_counter`` window (``started``/``pre_s``/
``engine_s``/``total_s``) and identity (``pid``/``server``), which
:func:`repro.metrics.tracing.graft_remote_call` aligns into the client
clock and folds under the client's ``rpc.<method>`` span.

Three value-level codecs live here because both ends need them:

* :func:`encode_value` / :func:`decode_value` — rows, keys and hints.
  JSON-native scalars pass through, tuples become lists (every DAL
  entry point accepts sequences), and ``bytes`` become a tagged base64
  object;
* :func:`encode_schema` / :func:`decode_schema` — :class:`TableSchema`
  for ``create_table``;
* :func:`stats_delta` / :func:`apply_stats_delta` — counters-only
  :class:`AccessStats` shipping. The server keeps one tally per
  connection (its session's stats, which every transaction on the
  connection records into) and drains it into each transaction
  response: the non-zero counters and by-kind counts since the
  previous response, never :class:`AccessEvent` records. The client
  folds the delta into its session's tally, so access-path
  verification and round-trip budgets see exactly the counters an
  embedded driver would; a traced operation's ``db.*`` events arrive
  once, in the server's grafted span tree.

Errors travel as ``{"type": <class name>, "message": str}``. The client
re-raises the matching class from :mod:`repro.errors` (the whole
``ReproError`` tree is registered by introspection, so a new database
error type propagates with no protocol change); unknown types surface
as :class:`repro.errors.RemoteCallError`.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Mapping, Optional

from repro import errors as _errors
from repro.errors import ProtocolError, RemoteCallError
from repro.ndb.schema import TableSchema
from repro.ndb.stats import AccessKind, AccessStats

#: bump when the frame or message layout changes incompatibly
PROTOCOL_VERSION = 1

#: refuse frames larger than this (corrupt peer / length desync guard)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")

_BYTES_TAG = "__bytes_b64__"


# -- framing -------------------------------------------------------------------


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (length prefix + JSON)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return _LEN.pack(len(payload)) + payload


def decode_length(header: bytes) -> int:
    """Parse the 4-byte length prefix; validates the advertised size."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer advertised a {length}-byte frame "
                            f"(max {MAX_FRAME_BYTES}); stream desynced?")
    return length


def decode_payload(payload: bytes) -> dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload is {type(message).__name__}, "
                            "expected an object")
    return message


# -- message constructors ------------------------------------------------------


def request(req_id: int, method: str,
            params: Optional[Mapping[str, Any]] = None,
            trace: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
    message = {"id": req_id, "method": method, "params": dict(params or {})}
    if trace is not None:
        message["trace"] = dict(trace)
    return message


def ok(req_id: int, result: Any) -> dict[str, Any]:
    return {"id": req_id, "ok": True, "result": result}


def error(req_id: int, exc: BaseException) -> dict[str, Any]:
    return {"id": req_id, "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _error_registry() -> dict[str, type]:
    """Every concrete ``ReproError`` subclass, by class name."""
    registry: dict[str, type] = {}
    stack = [_errors.ReproError]
    while stack:
        cls = stack.pop()
        registry[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    # common stdlib types a handler may legitimately raise
    for cls in (ValueError, KeyError, TypeError, RuntimeError,
                NotImplementedError):
        registry[cls.__name__] = cls
    return registry


_ERRORS_BY_NAME = _error_registry()


def raise_remote(err: Mapping[str, Any]) -> None:
    """Re-raise a remote error dict as the matching local exception."""
    name = err.get("type", "?")
    message = err.get("message", "")
    cls = _ERRORS_BY_NAME.get(name)
    if cls is None:
        raise RemoteCallError(f"{name}: {message}")
    raise cls(message)


# -- value codec ---------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Recursively encode a row/key/hint value into JSON-able form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise ProtocolError(f"cannot encode {type(value).__name__} value "
                        f"{value!r} for the wire")


def decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {_BYTES_TAG}:
            return base64.b64decode(value[_BYTES_TAG])
        return {k: decode_value(v) for k, v in value.items()}
    return value


def encode_hint(hint: Optional[tuple[str, Mapping[str, Any]]]) -> Any:
    if hint is None:
        return None
    table, values = hint
    return [table, encode_value(dict(values))]


def decode_hint(raw: Any) -> Optional[tuple[str, dict[str, Any]]]:
    if raw is None:
        return None
    table, values = raw
    return (table, decode_value(values))


# -- schema codec --------------------------------------------------------------


def encode_schema(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": list(schema.columns),
        "primary_key": list(schema.primary_key),
        "partition_key": list(schema.partition_key or ()),
        "indexes": {name: list(cols)
                    for name, cols in schema.indexes.items()},
    }


def decode_schema(raw: Mapping[str, Any]) -> TableSchema:
    return TableSchema(
        name=raw["name"],
        columns=tuple(raw["columns"]),
        primary_key=tuple(raw["primary_key"]),
        partition_key=tuple(raw["partition_key"]) or None,
        indexes={name: tuple(cols)
                 for name, cols in raw.get("indexes", {}).items()},
    )


# -- access-stats codec --------------------------------------------------------

#: the scalar :class:`AccessStats` counters a stats delta carries
_STATS_COUNTERS = ("round_trips", "rows_read", "rows_written",
                   "rows_locked", "remote_partition_hops")


def stats_delta(stats: AccessStats) -> dict[str, Any]:
    """Drain ``stats`` into a wire delta and zero it.

    The delta holds the non-zero scalar counters plus a ``by_kind`` map
    of access-kind value to count; events are never shipped.
    """
    delta: dict[str, Any] = {}
    for name in _STATS_COUNTERS:
        value = getattr(stats, name)
        if value:
            delta[name] = value
    if stats.by_kind:
        delta["by_kind"] = {kind.value: count
                            for kind, count in stats.by_kind.items()}
    stats.clear()
    return delta


def apply_stats_delta(stats: AccessStats, delta: Mapping[str, Any]) -> None:
    """Fold a server-produced stats delta into a client-side AccessStats.

    Counters are added directly (not via :meth:`AccessStats.record`) so
    the client mirrors the server's counters exactly — including the
    double-incremented ``rows_locked`` semantics of the native engine.
    """
    for name in _STATS_COUNTERS:
        if name in delta:
            setattr(stats, name, getattr(stats, name) + delta[name])
    for kind_value, count in delta.get("by_kind", {}).items():
        kind = AccessKind(kind_value)
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + count
