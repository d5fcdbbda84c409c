"""Process-local metrics registry: named counters.

The hot layers (conflict cores, timeline, results backends) count
cheap aggregate signals here — cache hits, stored checkpoints, store
traffic — and the tracer snapshots the registry into the trace file so
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
else may write it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ENABLED",
    "REGISTRY",
    "MetricsRegistry",
    "inc",
    "merge_snapshots",
]

# Toggled (via this module's namespace) by repro.obs.enable/disable.
# Instrumentation sites read it directly; keep it a plain bool.
ENABLED = False


class MetricsRegistry:
    """Named counters.

    One registry per process (``REGISTRY``); worker processes snapshot
    theirs into per-process trace sidecars, and the report layer merges
    snapshots with :func:`merge_snapshots`.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """A JSON-ready copy of the current state."""
        return {"counters": dict(self.counters)}

    def clear(self) -> None:
        self.counters.clear()


REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if ENABLED:
        REGISTRY.inc(name, value)


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-process snapshots into one cross-process view.

    Counters sum.  Snapshots from older traces may also carry
    ``gauges``/``histograms`` sections; they are ignored.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged.inc(name, value)
    return merged.snapshot()
