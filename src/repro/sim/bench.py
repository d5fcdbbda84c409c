"""Component benchmark for what the end-to-end benchmark cannot reach.

``perfbench`` times the paper's workloads end to end at the sizes they
run at.  ``minim-cdma bench`` keeps one family outside that range:
:func:`run_obs_overhead_bench` prices the observability layer itself —
the same join trace with tracing off and on, the ``on`` entry carrying
the CI-gated ``trace_on_vs_off`` throughput ratio (the ≤3%-overhead
contract of :mod:`repro.obs`).

Every entry records ``peak_mem_mb`` (its traced warmup's peak).
Results land in ``BENCH_eventloop.json`` (one entry per trace × mode
with ``scenario``, ``n``, ``wall_seconds``, ``events_per_sec``) so the
trajectory is machine-readable from CI artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.events.base import Event, JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.obs.clock import perf_seconds, traced_peak_mb
from repro.sim.random_networks import sample_configs
from repro.topology.digraph import AdHocDigraph

__all__ = [
    "drive_event_loop",
    "run_obs_overhead_bench",
    "write_bench_json",
]

_DEFAULT_OUT = Path("BENCH_eventloop.json")


def drive_event_loop(events: list[Event]) -> float:
    """Apply ``events`` to a fresh digraph; return the wall seconds.

    Per event, after the topology mutation, the conflict sets of the
    event node and its in-neighbors are derived — the exact queries a
    recoding strategy issues as its first step (constraint collection
    over ``V1``).  V1 is gathered as a slot index array and all its
    conflict rows come from one batched
    :meth:`~repro.topology.digraph.AdHocDigraph.conflict_pairs` call —
    the event loop a strategy replay runs.  The event node's own set is
    read through the per-version memo
    (:meth:`~repro.topology.digraph.AdHocDigraph.conflict_neighbor_ids`),
    the query every strategy lane repeats, so a traced drive records
    the ``core.memo.*`` counters.
    """
    graph = AdHocDigraph()
    start = perf_seconds()
    for ev in events:
        if isinstance(ev, JoinEvent):
            graph.add_node(ev.config)
        elif isinstance(ev, MoveEvent):
            graph.move_node(ev.node_id, ev.x, ev.y)
        elif isinstance(ev, PowerChangeEvent):
            graph.set_range(ev.node_id, ev.new_range)
        elif isinstance(ev, LeaveEvent):
            graph.remove_node(ev.node_id)
            continue  # nothing to recode around a departed node
        graph.conflict_pairs(graph.v1_slots(graph.slot_of(ev.node_id)))
        graph.conflict_neighbor_ids(ev.node_id)
    return perf_seconds() - start


def run_obs_overhead_bench(
    *,
    n: int = 120,
    runs: int = 5,
    inner: int = 10,
    seed: int = 2001,
) -> list[dict]:
    """Time the event loop with tracing off vs on; return both entries.

    The observability layer's contract is that its hot-path guards
    (``if _met.ENABLED: ...`` in the conflict cores) cost nothing
    measurable when tracing is off and only a few percent when on.
    This bench pins that claim: the fig10-style join trace runs through
    :func:`drive_event_loop` twice — ``off`` with the obs layer
    disabled, ``on`` inside an :func:`repro.obs.enable` /
    :func:`repro.obs.close` window writing to a throwaway trace file —
    and the ``on`` entry carries ``trace_on_vs_off``, the off/on wall
    ratio (1.0 = free, 0.97 = 3% slowdown; CI gates the floor).  Each
    sample drives the trace ``inner`` times, the off and on samples of
    a round run back to back (so slow machine drift — thermal
    throttling, noisy CI neighbors — hits both legs equally instead of
    masquerading as overhead), and ``trace_on_vs_off`` is the *best*
    per-round ratio over ``runs`` rounds: scheduler noise on a
    millisecond sample is one-sided and larger than the true overhead,
    so the gate asks for one clean paired round rather than every round
    clean — a real unguarded-hot-path regression drags every round down
    and still fails.  The published ``wall_seconds`` per leg is the
    minimum over rounds, the timeit convention.

    Runs refuse to start while tracing is already enabled (inside an
    :func:`repro.obs.enable` window): the off leg would silently measure the on
    configuration and the ratio would gate nothing.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if inner < 1:
        raise ValueError(f"inner must be >= 1, got {inner}")
    import tempfile

    from repro import obs

    if obs.enabled():
        raise ConfigurationError(
            "the obs-overhead bench toggles tracing itself; run it with tracing off"
        )
    rng = np.random.default_rng(seed)
    events: list[Event] = [JoinEvent(c) for c in sample_configs(n, rng)]

    def drive() -> float:
        return sum(drive_event_loop(events) for _ in range(inner))

    walls = {"off": float("inf"), "on": float("inf")}
    peaks: dict[str, float] = {}
    peaks["off"] = traced_peak_mb(drive)  # warmup
    with tempfile.TemporaryDirectory() as td:
        sink = Path(td) / "obs-overhead.jsonl"
        obs.enable(sink)
        try:
            peaks["on"] = traced_peak_mb(drive)  # warmup
        finally:
            obs.close()
        round_ratios: list[float] = []
        for _ in range(runs):
            off_wall = drive()
            obs.enable(sink)
            try:
                on_wall = drive()
            finally:
                obs.close()
            walls["off"] = min(walls["off"], off_wall)
            walls["on"] = min(walls["on"], on_wall)
            round_ratios.append(off_wall / on_wall if on_wall > 0 else 1.0)
    driven = inner * len(events)
    entries: list[dict] = []
    for mode in ("off", "on"):
        wall = walls[mode]
        entries.append(
            {
                "scenario": "obs-overhead",
                "n": n,
                "mode": mode,
                "events": driven,
                "runs": runs,
                "wall_seconds": wall,
                "events_per_sec": driven / wall if wall > 0 else float("inf"),
                "peak_mem_mb": peaks[mode],
            }
        )
    entries[-1]["trace_on_vs_off"] = max(round_ratios)
    return entries


def write_bench_json(entries: list[dict], out: Path | None = None) -> Path:
    """Write bench entries to ``out`` (default ``BENCH_eventloop.json``)."""
    path = _DEFAULT_OUT if out is None else out
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path
