"""Database access statistics: one tally per session.

A transaction begun through a session records straight into the
session's :class:`AccessStats` — there is no per-transaction copy to
merge. Session tallies keep counters only (``keep_events=False``); a
transaction begun on the cluster without a session owns a fresh,
event-keeping :class:`AccessStats`.

These statistics serve two purposes:

1. **Verification** — tests assert that HopsFS operations use only the
   cheap access paths (PK, batched PK, PPIS) and never full-table or
   all-shard index scans (paper Fig. 2b), and that the inode hint cache
   turns N path-resolution round trips into one. Counters suffice.
2. **Profiling for the performance model** — :mod:`repro.perfmodel`
   installs an event-keeping capture sink on a namenode and replays the
   ordered list of :class:`AccessEvent` each file system operation
   generated in simulated time. Event objects exist only in such sinks,
   in transactions begun without a session, and (as ``db.*`` trace
   events) in sampled traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.metrics.tracing import _ACTIVE, record_access


class AccessKind(enum.Enum):
    """The five database access types of paper Figure 2a, plus commit."""

    PK = "pk"                      # single-row primary-key operation
    BATCH_PK = "batched_pk"        # batched primary-key operations
    PPIS = "partition_pruned_scan"  # scan confined to one shard
    INDEX_SCAN = "index_scan"      # scan touching every shard
    FULL_SCAN = "full_table_scan"  # unindexed scan touching every shard
    COMMIT = "commit"              # 2PC commit round


@dataclass
class AccessEvent:
    """One client↔cluster round trip.

    ``nodes`` is the set of datanodes doing work for the round trip (for a
    batched read this is every node holding one of the keys; the work is
    done in parallel). ``coordinator_local`` is True when the transaction
    coordinator's own node holds all the data — the distribution-aware
    transaction win.
    """

    kind: AccessKind
    table: str
    partitions: tuple[int, ...]
    nodes: tuple[int, ...]
    coordinator: int
    rows: int = 0
    locked: bool = False
    write: bool = False
    #: node groups owning ``partitions`` (shard attribution for tracing;
    #: empty when the producer has no partition map, e.g. the memory DAL)
    node_groups: tuple[int, ...] = ()

    @property
    def coordinator_local(self) -> bool:
        return all(node == self.coordinator for node in self.nodes)


@dataclass
class RoundTripBudget:
    """A per-operation round-trip budget view over an :class:`AccessStats`.

    Snapshot the counter when the operation starts (``stats.budget(n)``)
    and ask it afterwards how many round trips the op actually used —
    the cost program's unit of account. ``exceeded`` is the hot-path
    regression signal: an op that should cost one batched read budgets
    1 and trips the flag the moment someone reintroduces a redundant
    re-read.
    """

    stats: "AccessStats"
    limit: int
    start: int

    @property
    def used(self) -> int:
        return self.stats.round_trips - self.start

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    @property
    def exceeded(self) -> bool:
        return self.used > self.limit


@dataclass
class AccessStats:
    """Aggregated counters; addable across transactions/sessions."""

    round_trips: int = 0
    by_kind: dict[AccessKind, int] = field(default_factory=dict)
    rows_read: int = 0
    rows_written: int = 0
    rows_locked: int = 0
    remote_partition_hops: int = 0
    events: list[AccessEvent] = field(default_factory=list)
    #: record the full event list (disable for long-running workloads)
    keep_events: bool = True

    def record(self, event: AccessEvent) -> None:
        # mark the round trip on the active per-operation trace, if any
        # (the inline thread-local read keeps the untraced path at zero
        # extra function calls — this is the hottest instrumentation site)
        if _ACTIVE.bind[1] is not None:
            record_access(event.kind.value, event.table,
                          event.partitions, event.node_groups)
        self.round_trips += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        if event.write:
            self.rows_written += event.rows
        else:
            self.rows_read += event.rows
        if event.locked:
            self.rows_locked += event.rows
        self.remote_partition_hops += sum(
            1 for node in event.nodes if node != event.coordinator
        )
        if self.keep_events:
            self.events.append(event)

    def count(self, kind: AccessKind) -> int:
        return self.by_kind.get(kind, 0)

    def budget(self, limit: int) -> RoundTripBudget:
        """Open a :class:`RoundTripBudget` of ``limit`` round trips,
        counting from the current value of :attr:`round_trips`."""
        return RoundTripBudget(stats=self, limit=limit,
                               start=self.round_trips)

    def merge(self, other: "AccessStats") -> None:
        self.round_trips += other.round_trips
        for kind, n in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n
        self.rows_read += other.rows_read
        self.rows_written += other.rows_written
        self.rows_locked += other.rows_locked
        self.remote_partition_hops += other.remote_partition_hops
        if self.keep_events:
            self.events.extend(other.events)

    def clear(self) -> None:
        self.round_trips = 0
        self.by_kind.clear()
        self.rows_read = 0
        self.rows_written = 0
        self.rows_locked = 0
        self.remote_partition_hops = 0
        self.events.clear()

    @property
    def uses_expensive_scans(self) -> bool:
        """True if any all-shard access (IS or FTS) was used."""
        return (
            self.count(AccessKind.INDEX_SCAN) > 0
            or self.count(AccessKind.FULL_SCAN) > 0
        )
