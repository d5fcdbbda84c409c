"""Process-local metrics registry: counters, gauges, histograms.

The hot layers (conflict cores, timeline, results backends) record
cheap aggregate signals here — cache hits, bailouts, candidate-window
sizes — and the tracer snapshots the registry into the trace file so
``minim-cdma report`` can compute ratios across a whole sweep.

Cost discipline: every recording site is guarded by the module-level
``ENABLED`` flag, so with observability off (the default) an
instrumented hot loop pays one module-attribute read and a branch —
no function call, no allocation::

    from repro.obs import metrics as _met
    ...
    if _met.ENABLED:
        _met.REGISTRY.inc("core.memo.hit")

``ENABLED`` is owned by :func:`repro.obs.enable` / ``disable``; nothing
else may write it.  Histograms keep streaming aggregates
(count/total/min/max), not samples — recording stays O(1) and the
registry stays small enough to snapshot into every trace flush.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ENABLED",
    "REGISTRY",
    "MetricsRegistry",
    "inc",
    "observe",
    "set_gauge",
    "merge_snapshots",
]

# Toggled (via this module's namespace) by repro.obs.enable/disable.
# Instrumentation sites read it directly; keep it a plain bool.
ENABLED = False


class MetricsRegistry:
    """Named counters, gauges, and streaming histograms.

    One registry per process (``REGISTRY``); worker processes snapshot
    theirs into per-process trace sidecars, and the report layer merges
    snapshots with :func:`merge_snapshots`.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, float]] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = {"count": 1, "total": value, "min": value, "max": value}
            return
        h["count"] += 1
        h["total"] += value
        if value < h["min"]:
            h["min"] = value
        if value > h["max"]:
            h["max"] = value

    def snapshot(self) -> dict:
        """A JSON-ready copy of the current state."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if ENABLED:
        REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op while disabled)."""
    if ENABLED:
        REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Fold a sample into a streaming histogram (no-op while disabled)."""
    if ENABLED:
        REGISTRY.observe(name, value)


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-process snapshots into one cross-process view.

    Counters and histogram aggregates sum/extremize; gauges keep the
    last writer (snapshots are ordered by flush time, so "last" is the
    most recent observation across the fleet).
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            merged.set_gauge(name, value)
        for name, h in snap.get("histograms", {}).items():
            out = merged.histograms.get(name)
            if out is None:
                merged.histograms[name] = dict(h)
            else:
                out["count"] += h["count"]
                out["total"] += h["total"]
                out["min"] = min(out["min"], h["min"])
                out["max"] = max(out["max"], h["max"])
    return merged.snapshot()
