"""Exporters: JSON snapshots, Prometheus text exposition, summary tables.

One registry, three views:

* :func:`snapshot` / :func:`to_json` / :func:`from_json` — a structured,
  machine-readable dict (what ``--metrics-json`` writes next to benchmark
  results); the JSON round trip is lossless for counters/gauges and keeps
  histogram headline stats (count/sum/max/mean + percentiles) and, with
  samples, each histogram's mergeable bucket ``state``;
* :func:`prometheus_text` — the Prometheus text exposition format
  (histograms become summaries with ``quantile`` labels), so a real
  scraper could be pointed at a deployment with no code changes;
* :func:`summary` — a human-readable table for the CLI ``metrics``
  command.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.metrics.registry import MetricsRegistry

SNAPSHOT_VERSION = 2

#: percentiles exported for every histogram
PERCENTILES = (50.0, 90.0, 99.0)


def _nan_safe(value: float) -> Optional[float]:
    return None if value != value else value  # NaN -> null in JSON


def snapshot(registry: MetricsRegistry, meta: Optional[dict] = None,
             include_samples: bool = False) -> dict:
    """Structured snapshot of every metric in ``registry``.

    With ``include_samples`` each histogram additionally carries its
    :meth:`~repro.metrics.registry.HistogramMetric.state` — the per-second
    log-linear bucket vectors — under ``state``, which makes the
    snapshot *mergeable*: vectors add, so percentiles of a merged
    snapshot equal those of one registry that saw every observation
    (see :func:`merge_snapshots`). Server processes emit sample-carrying
    snapshots on exit for exactly this reason. Counters likewise ship
    their per-second ``buckets``, so windowed views (:func:`windows`,
    ``repro top``) survive the snapshot → registry round trip and merge
    across processes (both are wall-clock stamped).
    """
    counters = []
    for c in registry.counters():
        entry = {"name": c.name, "labels": dict(c.labels),
                 "value": c.value}
        if include_samples:
            buckets = c.window_buckets()
            if buckets:
                entry["buckets"] = buckets
        counters.append(entry)
    gauges = [
        {"name": g.name, "labels": dict(g.labels), "value": g.value}
        for g in registry.gauges()
    ]
    histograms = []
    for h in registry.histograms():
        ps = h.percentiles(PERCENTILES)
        entry = {
            "name": h.name,
            "labels": dict(h.labels),
            "count": h.count,
            "sum": h.total,
            "max": h.max,
            "mean": _nan_safe(h.mean),
            "percentiles": {f"p{int(p)}": _nan_safe(v)
                            for p, v in ps.items()},
        }
        if include_samples:
            entry["state"] = h.state()
        histograms.append(entry)
    key = lambda m: (m["name"], sorted(m["labels"].items()))  # noqa: E731
    result = {
        "version": SNAPSHOT_VERSION,
        "counters": sorted(counters, key=key),
        "gauges": sorted(gauges, key=key),
        "histograms": sorted(histograms, key=key),
    }
    if meta:
        result["meta"] = dict(meta)
    return result


def to_json(registry: MetricsRegistry, meta: Optional[dict] = None,
            indent: int = 2, include_samples: bool = False) -> str:
    return json.dumps(snapshot(registry, meta=meta,
                               include_samples=include_samples),
                      indent=indent, sort_keys=True)


def from_json(text: str) -> dict:
    """Parse a snapshot produced by :func:`to_json` (version checked)."""
    data = json.loads(text)
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported metrics snapshot version {version!r}")
    return data


def snapshot_counters(data: dict) -> dict[tuple, float]:
    """Flatten a parsed snapshot's counters to ``{(name, labels): value}``."""
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in data["counters"]
    }


def registry_from_snapshot(data: dict) -> MetricsRegistry:
    """Rebuild a registry from a parsed snapshot.

    Counters and gauges round-trip exactly. Histograms rebuild from the
    snapshot's ``state`` when present (sample-carrying snapshots, the
    mergeable kind); count/sum/max stay exact either way, but a
    sample-less snapshot yields empty percentiles. Window state restores
    through the window-safe merge paths, so rebuilding never replays old
    traffic as new.
    """
    registry = MetricsRegistry()
    for c in data.get("counters", ()):
        metric = registry.counter(c["name"], **c["labels"])
        metric.add_total(c["value"])
        if c.get("buckets"):
            metric.merge_window_parts(c["buckets"])
    for g in data.get("gauges", ()):
        registry.gauge(g["name"], **g["labels"]).set(g["value"])
    for h in data.get("histograms", ()):
        # a sample-less entry's count/sum/max make a bucket-less state
        registry.histogram(h["name"], **h["labels"]).merge_state(
            h.get("state") or h)
    return registry


def merge_snapshots(snapshots: list[dict],
                    meta: Optional[dict] = None,
                    include_samples: bool = True) -> dict:
    """Merge many snapshots (one per process) into one cluster-wide view.

    Counters and gauges sum; histograms add their bucket vectors, so the
    merged percentiles are those of the union, exactly as
    :meth:`MetricsRegistry.merge` does for in-process registries. Each
    input's ``meta`` is preserved under ``meta.sources``.
    """
    merged = MetricsRegistry()
    sources = []
    for data in snapshots:
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported metrics snapshot version {version!r}")
        merged.merge(registry_from_snapshot(data))
        if data.get("meta"):
            sources.append(dict(data["meta"]))
    out_meta = dict(meta or {})
    out_meta["merged_from"] = len(snapshots)
    if sources:
        out_meta["sources"] = sources
    return snapshot(merged, meta=out_meta, include_samples=include_samples)


def windows(registry: MetricsRegistry, seconds: float = 60.0,
            now: Optional[float] = None) -> dict:
    """Windowed view of every metric with recent traffic.

    Returns ``{"window_seconds": N, "counters": [...], "histograms":
    [...]}`` where each entry carries the metric identity plus its
    :meth:`~repro.metrics.registry.HistogramMetric.window` dict (rate
    and p50/p99 for histograms, count and rate for counters). Metrics
    with zero traffic inside the window are omitted — this is the live
    feed, not the inventory. The ``/metrics.json?window=N`` endpoint
    and ``repro top`` are both thin wrappers over this.
    """
    counters = []
    for c in registry.counters():
        view = c.window(seconds, now=now)
        if view["count"]:
            counters.append({"name": c.name, "labels": dict(c.labels),
                             **view})
    histograms = []
    for h in registry.histograms():
        view = h.window(seconds, now=now)
        if view["count"]:
            histograms.append({"name": h.name, "labels": dict(h.labels),
                               **view})
    key = lambda m: (m["name"], sorted(m["labels"].items()))  # noqa: E731
    return {
        "window_seconds": seconds,
        "counters": sorted(counters, key=key),
        "histograms": sorted(histograms, key=key),
    }


# -- Prometheus text exposition ------------------------------------------------


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _label_str(labels, extra: Optional[dict[str, str]] = None) -> str:
    items = list(labels) + (sorted(extra.items()) if extra else [])
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in items)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry,
                    namespace: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    prefix = f"{namespace}_" if namespace else ""

    by_name: dict[str, list] = {}
    for c in registry.counters():
        by_name.setdefault(c.name, []).append(c)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} counter")
        for c in sorted(by_name[name], key=lambda m: m.labels):
            lines.append(f"{prefix}{name}{_label_str(c.labels)} "
                         f"{_fmt(c.value)}")

    by_name = {}
    for g in registry.gauges():
        by_name.setdefault(g.name, []).append(g)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} gauge")
        for g in sorted(by_name[name], key=lambda m: m.labels):
            lines.append(f"{prefix}{name}{_label_str(g.labels)} "
                         f"{_fmt(g.value)}")

    by_name = {}
    for h in registry.histograms():
        by_name.setdefault(h.name, []).append(h)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} summary")
        for h in sorted(by_name[name], key=lambda m: m.labels):
            for p, value in h.percentiles(PERCENTILES).items():
                quantile = {"quantile": f"{p / 100.0:g}"}
                lines.append(
                    f"{prefix}{name}{_label_str(h.labels, quantile)} "
                    f"{_fmt(value)}")
            lines.append(f"{prefix}{name}_sum{_label_str(h.labels)} "
                         f"{_fmt(h.total)}")
            lines.append(f"{prefix}{name}_count{_label_str(h.labels)} "
                         f"{_fmt(h.count)}")
    return "\n".join(lines) + "\n"


# -- human-readable summary ----------------------------------------------------


def _table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(headers))]

    def render(cells) -> str:
        return "  ".join(str(c).ljust(w)
                         for c, w in zip(cells, widths, strict=True))

    lines = [title, render(headers), "-" * (sum(widths) + 2 * len(widths))]
    lines += [render(r) for r in rows]
    return "\n".join(lines)


def _label_suffix(labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def summary(registry: MetricsRegistry) -> str:
    """Render every metric as aligned tables (CLI ``metrics`` command)."""
    sections = []
    hist_rows = []
    for h in sorted(registry.histograms(),
                    key=lambda m: (m.name, m.labels)):
        ps = h.percentiles(PERCENTILES)
        hist_rows.append([
            f"{h.name}{_label_suffix(h.labels)}", str(h.count),
            f"{h.mean * 1e3:.3f}" if h.count else "-",
            f"{ps[50.0] * 1e3:.3f}" if h.count else "-",
            f"{ps[90.0] * 1e3:.3f}" if h.count else "-",
            f"{ps[99.0] * 1e3:.3f}" if h.count else "-",
            f"{h.max * 1e3:.3f}" if h.count else "-",
        ])
    if hist_rows:
        sections.append(_table(
            "latency (milliseconds)",
            ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
            hist_rows))
    counter_rows = [
        [f"{c.name}{_label_suffix(c.labels)}", _fmt(c.value)]
        for c in sorted(registry.counters(), key=lambda m: (m.name, m.labels))
        if c.value
    ]
    if counter_rows:
        sections.append(_table("counters", ["counter", "value"],
                               counter_rows))
    gauge_rows = [
        [f"{g.name}{_label_suffix(g.labels)}", f"{g.value:g}"]
        for g in sorted(registry.gauges(), key=lambda m: (m.name, m.labels))
    ]
    if gauge_rows:
        sections.append(_table("gauges", ["gauge", "value"], gauge_rows))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"
