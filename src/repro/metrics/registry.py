"""A thread-safe registry of named, labelled metrics.

Three metric families, mirroring the Prometheus data model but with no
external dependencies:

* :class:`CounterMetric` — monotonically increasing totals (operation
  counts, retries, database round trips);
* :class:`GaugeMetric` — point-in-time values (hint-cache size, hit
  rate, lock-table size);
* :class:`HistogramMetric` — latency distributions kept as fixed
  log-linear buckets per wall-clock second (HdrHistogram style), so
  p50/p99 stay cheap and bounded-error for millions of observations.

Metrics are identified by ``(name, labels)``; labels are free-form
keyword arguments (``op="mkdir"``, ``table="inodes"``). Conventions used
across the tree are documented in ``docs/architecture.md`` §Observability:
counters end in ``_total``, durations are in seconds and end in
``_seconds``.

Registries are cheap to create (one per namenode) and mergeable —
:meth:`MetricsRegistry.merge` sums counters and gauges and adds
histogram bucket vectors, which is how
:meth:`repro.hopsfs.cluster.HopsFSCluster.metrics_registry` produces one
cluster-wide view from per-namenode registries.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from math import frexp, inf
from typing import Iterator, Optional

from repro.util.stats import percentile

#: label sets are stored canonically as sorted (key, value) tuples
LabelItems = tuple[tuple[str, str], ...]

#: sliding-window history horizon (seconds) — events older than this are
#: pruned; windows wider than the horizon silently clamp to it
WINDOW_HORIZON = 600.0

#: log-linear histogram buckets per power of two: a bucket spans at most
#: ``1/SUB_BUCKETS`` of its lower bound, bounding percentiles' error
SUB_BUCKETS = 64


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _bucket(value: float) -> int:
    """Log-linear bucket of ``value``, monotone in it: the binary
    exponent, then which of :data:`SUB_BUCKETS` slices of the octave."""
    if not value > 0.0:
        return -(1 << 20)  # zero, and negatives (which no caller records)
    mantissa, exponent = frexp(value)
    return exponent * SUB_BUCKETS + int(mantissa * (2 * SUB_BUCKETS))


def _add_cells(into: dict, cells: dict) -> None:
    """Add bucket vector ``cells`` (index → ``[count, sum]``) into ``into``."""
    for index, (count, value_sum) in cells.items():
        cell = into.setdefault(index, [0, 0.0])
        cell[0] += count
        cell[1] += value_sum


def _pop_expired(buckets: dict, sec: int) -> list:
    """Remove and return the per-second entries older than the horizon."""
    cutoff = sec - WINDOW_HORIZON
    return [buckets.pop(old) for old in [s for s in buckets if s < cutoff]]


class _OrderStatistics:
    """A bucket vector as the sorted list :func:`percentile` reads: item
    ``k`` is the mean of the bucket holding the ``k``-th smallest value."""

    def __init__(self, cells: dict) -> None:
        self.ends, self.means = [], []
        for count, value_sum in (cells[i] for i in sorted(cells)):
            self.ends.append(count + (self.ends[-1] if self.ends else 0))
            self.means.append(value_sum / count)

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, k: int) -> float:
        return self.means[bisect_right(self.ends, k)]


def handle_cache(registry: "MetricsRegistry") -> dict:
    """The registry's memo dict for hot paths caching live metric handles.

    The convenience :meth:`MetricsRegistry.inc`/:meth:`~MetricsRegistry.observe`
    helpers pay a label-canonicalization plus a locked dict lookup on
    every call; a hot path that fires per database round trip caches the
    live :class:`CounterMetric`/:class:`HistogramMetric` object here
    under its own cheap key instead. Entries live as long as the
    registry. Plain-dict races under the GIL are benign: the registry's
    own get-or-create guarantees both racers receive the same metric.
    """
    return registry._handles


class _WindowBuckets:
    """Per-second event buckets for sliding-window rates.

    Timestamps are *wall clock* (``time.time()``) so buckets from
    different processes merge meaningfully — the whole point of windowed
    snapshots is aggregating a ServerPool's view. Not internally locked;
    the owning metric's lock guards every access (guarded_by: owner
    metric ``_lock``).
    """

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: dict[int, float] = {}

    def add(self, n: float, now: Optional[float] = None) -> None:
        sec = int(now if now is not None else time.time())
        buckets = self.buckets
        buckets[sec] = buckets.get(sec, 0.0) + n
        if len(buckets) > WINDOW_HORIZON:
            _pop_expired(buckets, sec)

    def merge(self, parts: dict) -> None:
        buckets = self.buckets
        for sec, n in parts.items():
            sec = int(sec)  # JSON round trips turn keys into strings
            buckets[sec] = buckets.get(sec, 0.0) + n

    def count(self, seconds: float, now: Optional[float] = None) -> float:
        if now is None:
            now = time.time()
        cutoff = now - min(seconds, WINDOW_HORIZON)
        return sum(n for sec, n in self.buckets.items() if sec > cutoff)

    def to_dict(self) -> dict[str, float]:
        return {str(sec): n for sec, n in self.buckets.items()}


class CounterMetric:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "_value", "_window", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._window = _WindowBuckets()
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += n
            self._window.add(n)

    def add_total(self, n: float) -> None:
        """Raise the total *without* recording window traffic.

        Merge/restore paths use this: ``cluster.metrics_registry()``
        re-merges per-namenode registries into a fresh one on every
        call, and folding those totals through :meth:`inc` would make
        old traffic look like a burst of activity *now*. Window state
        travels separately via :meth:`merge_window_parts`.
        """
        with self._lock:
            self._value += n

    def merge_window(self, other: "CounterMetric") -> None:
        with other._lock:
            parts = dict(other._window.buckets)
        with self._lock:
            self._window.merge(parts)

    def merge_window_parts(self, buckets: dict) -> None:
        """Fold exported per-second buckets in (snapshot restoring)."""
        with self._lock:
            self._window.merge(buckets)

    def window_buckets(self) -> dict[str, float]:
        """Exported per-second buckets (mergeable snapshot payload)."""
        with self._lock:
            return self._window.to_dict()

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Events and rate over the trailing ``seconds`` of wall clock."""
        with self._lock:
            count = self._window.count(seconds, now=now)
        span = max(min(seconds, WINDOW_HORIZON), 1e-9)
        return {"count": count, "rate": count / span}

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeMetric:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramMetric:
    """A latency/size distribution in fixed log-linear buckets.

    One store serves every view: exact ``count``/``total``/``max`` plus,
    per wall-clock second, a vector mapping a bucket to ``[count, sum]``;
    vectors older than :data:`WINDOW_HORIZON` fold into a lifetime
    vector at second 0, which no window reaches. Percentiles follow
    :func:`repro.util.stats.percentile` with each order statistic
    represented by its bucket's mean, so they are within
    ``1/SUB_BUCKETS`` (relative) of the exact ones. Vectors merge by
    plain addition: a merged histogram equals one that saw it all.
    """

    __slots__ = ("name", "labels", "_count", "_total", "_max", "_seconds",
                 "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._seconds: dict[int, dict[int, list]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        sec = int(time.time())
        index = _bucket(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            vector = self._seconds.get(sec)
            if vector is None:
                vector = self._seconds[sec] = {}
                if len(self._seconds) > WINDOW_HORIZON:
                    # the counters' pruning, but expired vectors, second
                    # 0's among them, fold into a new second-0 vector
                    for old in _pop_expired(self._seconds, sec):
                        _add_cells(self._seconds.setdefault(0, {}), old)
            cell = vector.setdefault(index, [0, 0.0])
            cell[0] += 1
            cell[1] += value

    def state(self) -> dict:
        """The whole store as JSON-able data (mergeable snapshot payload):
        ``{"count", "sum", "max", "seconds": {second: {bucket: [count,
        sum]}}}``."""
        with self._lock:
            return {"count": self._count, "sum": self._total,
                    "max": self._max,
                    "seconds": {sec: {i: list(cell)
                                      for i, cell in vector.items()}
                                for sec, vector in self._seconds.items()}}

    def merge_state(self, state: dict) -> None:
        """Add a :meth:`state` (or its JSON round trip) in. Vectors keep
        their seconds, so a merge never replays old traffic as new."""
        with self._lock:
            self._count += state["count"]
            self._total += state["sum"]
            self._max = max(self._max, state["max"])
            for sec, cells in state.get("seconds", {}).items():
                # JSON round trips turn both kinds of keys into strings
                _add_cells(self._seconds.setdefault(int(sec), {}),
                           {int(i): cell for i, cell in cells.items()})

    def cells(self, since: float = -inf) -> dict[int, list]:
        """Bucket → ``[count, sum]`` summed over the vectors stamped after
        wall-clock ``since`` (by default all of them)."""
        cells: dict[int, list] = {}
        with self._lock:
            for sec, vector in self._seconds.items():
                if sec > since:
                    _add_cells(cells, vector)
        return cells

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Windowed view: exact count/rate/mean, bucketed percentiles.

        Returns ``{"count", "rate", "p50", "p99", "mean", "max"}`` over
        the trailing ``seconds`` (clamped to :data:`WINDOW_HORIZON`);
        ``max`` is the largest observation's bucket mean.
        """
        span = max(min(seconds, WINDOW_HORIZON), 1e-9)
        cells = self.cells((time.time() if now is None else now) - span)
        count = sum(c for c, _ in cells.values())
        out = {"count": count, "rate": count / span,
               "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
        if count:
            ordered = _OrderStatistics(cells)
            out.update(p50=percentile(ordered, 50.0),
                       p99=percentile(ordered, 99.0),
                       mean=sum(s for _, s in cells.values()) / count,
                       max=ordered[count - 1])
        return out

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else float("nan")

    def percentile(self, p: float) -> float:
        return self.percentiles((p,))[p]

    def percentiles(self, ps: tuple[float, ...] = (50.0, 90.0, 99.0)
                    ) -> dict[float, float]:
        ordered = _OrderStatistics(self.cells())
        return {p: percentile(ordered, p) for p in ps}


class MetricsRegistry:
    """Thread-safe get-or-create home for every metric of one process.

    ``counter``/``gauge``/``histogram`` return the live metric object so
    hot paths can cache it; the convenience methods ``inc``/``set_gauge``/
    ``observe`` do a registry lookup per call and are meant for cold
    paths.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], CounterMetric] = {}
        self._gauges: dict[tuple[str, LabelItems], GaugeMetric] = {}
        self._histograms: dict[tuple[str, LabelItems], HistogramMetric] = {}
        #: hot-path metric-handle memo, handed out by :func:`handle_cache`
        self._handles: dict = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> CounterMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = CounterMetric(*key)
            return metric

    def gauge(self, name: str, **labels: object) -> GaugeMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = GaugeMetric(*key)
            return metric

    def histogram(self, name: str, **labels: object) -> HistogramMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = HistogramMetric(*key)
            return metric

    # -- convenience recording -------------------------------------------------

    def inc(self, name: str, n: float = 1.0, **labels: object) -> None:
        self.counter(name, **labels).inc(n)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reads -----------------------------------------------------------------

    def get_counter(self, name: str, **labels: object) -> float:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._counters.get(key)
        return metric.value if metric is not None else 0.0

    def get_gauge(self, name: str, **labels: object) -> Optional[float]:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._gauges.get(key)
        return metric.value if metric is not None else None

    def get_histogram(self, name: str, **labels: object
                      ) -> Optional[HistogramMetric]:
        key = (name, _label_items(labels))
        with self._lock:
            return self._histograms.get(key)

    def counters(self) -> Iterator[CounterMetric]:
        with self._lock:
            metrics = list(self._counters.values())
        return iter(metrics)

    def gauges(self) -> Iterator[GaugeMetric]:
        with self._lock:
            metrics = list(self._gauges.values())
        return iter(metrics)

    def histograms(self) -> Iterator[HistogramMetric]:
        with self._lock:
            metrics = list(self._histograms.values())
        return iter(metrics)

    def sum_counters(self, name: str) -> float:
        """Sum of one counter family across all label sets."""
        return sum(c.value for c in self.counters() if c.name == name)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (sums and bucket additions).

        Counters and gauges add; gauges that are *rates* rather than
        levels (e.g. ``hint_cache_hit_rate``) should be recomputed by the
        aggregator from their underlying totals after merging. Counter
        totals fold via :meth:`CounterMetric.add_total` (not ``inc``) so
        a re-merge never replays old traffic into the sliding windows;
        window buckets carry over with their original timestamps.
        """
        for counter in other.counters():
            mine = self.counter(counter.name, **dict(counter.labels))
            mine.add_total(counter.value)
            mine.merge_window(counter)
        for gauge in other.gauges():
            self.gauge(gauge.name, **dict(gauge.labels)).inc(gauge.value)
        for histogram in other.histograms():
            self.histogram(histogram.name, **dict(histogram.labels)
                           ).merge_state(histogram.state())
