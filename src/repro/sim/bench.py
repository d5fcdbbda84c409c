"""Component benchmarks for what the end-to-end benchmark cannot reach.

``perfbench`` times the paper's workloads end to end at the sizes they
run at.  ``minim-cdma bench`` keeps three families outside that range,
each timing one mechanism in isolation:

* :func:`run_large_n_bench` drives N≥2000 join traces at constant node
  density on both conflict cores, the regime where the array core's
  O(N²) blocks and N-wide masks collapse.  Its sparse entry drives the
  whole trace through the streaming bulk-join path and carries the
  CI-gated ``speedup_vs_array`` and a tracemalloc memory ceiling; a
  round-structured mobility entry measures
  :meth:`~repro.topology.digraph.AdHocDigraph.apply_round` batching.
* :func:`run_checkpoint_bench` prices the checkpoint fork/serialize
  paths at N=10⁴: after each churn round the state is captured as a
  full in-process ``copy`` (the pre-CoW fork), a ``full`` JSON snapshot
  round-trip, a ``replay`` of the whole round prefix from the shared
  base (what a consumer pays with no checkpoint at all), and a
  ``delta`` — CoW :meth:`~AdHocDigraph.fork` plus a serialized
  :meth:`~AdHocDigraph.delta_snapshot` /
  :meth:`~AdHocDigraph.apply_delta` round-trip onto a consumer shadow.
  The delta entry carries the CI-gated ``ckpt_delta_speedup`` (the
  best rival wall over the delta wall) and ``ckpt_bytes_ratio`` (delta
  bytes over full-snapshot bytes, a ceiling gate).
* :func:`run_obs_overhead_bench` prices the observability layer
  itself: the same join trace with tracing off and on, the ``on``
  entry carrying the CI-gated ``trace_on_vs_off`` throughput ratio
  (the ≤3%-overhead contract of :mod:`repro.obs`).

Every entry records ``peak_mem_mb`` (its traced warmup's peak).
Results land in ``BENCH_eventloop.json`` (one entry per trace × mode
with ``scenario``, ``n``, ``wall_seconds``, ``events_per_sec``) so the
trajectory is machine-readable from CI artifacts.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.events.base import Event, JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.obs.clock import perf_seconds, traced_peak_mb
from repro.sim.random_networks import sample_configs
from repro.topology import digraph
from repro.topology.digraph import AdHocDigraph

__all__ = [
    "drive_event_loop",
    "drive_event_rounds",
    "run_checkpoint_bench",
    "run_large_n_bench",
    "run_obs_overhead_bench",
    "write_bench_json",
]

_DEFAULT_OUT = Path("BENCH_eventloop.json")

_EVENT_LOOP_MODES = ("array", "sparse")

#: The array core's dense blocks need ~1.5 GB at N=10⁴ and grow O(N²);
#: above this the large-n bench drops the array leg rather than OOM.
_ARRAY_MAX_LARGE_N = 10000


@contextmanager
def _pinned_core(mode: str) -> Iterator[None]:
    """Run the graphs built inside the block on the named conflict core.

    The population picks a graph's core, so comparing both cores at one
    size means moving the promotion threshold for the block: to zero for
    ``sparse`` (a new graph starts on the sparse rows and never leaves
    them), past any population for ``array``, so large-n array entries
    honestly measure the dense blocks.
    """
    if mode not in _EVENT_LOOP_MODES:
        raise ValueError(f"unknown event-loop mode {mode!r}; expected one of {_EVENT_LOOP_MODES}")
    shipped = digraph._SPARSE_AUTO_MIN
    digraph._SPARSE_AUTO_MIN = 0 if mode == "sparse" else sys.maxsize
    try:
        yield
    finally:
        digraph._SPARSE_AUTO_MIN = shipped


def drive_event_loop(
    events: list[Event],
    *,
    mode: str,
    setup: list[Event] | None = None,
) -> float:
    """Apply ``events`` to a fresh digraph; return the wall seconds.

    Per event, after the topology mutation, the conflict sets of the
    event node and its in-neighbors are derived — the exact queries a
    recoding strategy issues as its first step (constraint collection
    over ``V1``), so every mode answers the same workload:

    - ``"array"`` — the array core;
    - ``"sparse"`` — the sparse (CSR rows) core.

    V1 is gathered as a slot index array and all its conflict rows come
    from one batched
    :meth:`~repro.topology.digraph.AdHocDigraph.conflict_pairs` call,
    which each core answers in its native form (one boolean block on
    the array core, cached CSR rows on the sparse core) — the event
    loop a strategy replay would run on that core.

    ``setup`` events, when given, build the starting topology *outside*
    the timed region (no conflict queries) — the large-n bench's
    rounds leg uses this to time churn over an already-joined
    population.
    """
    with _pinned_core(mode):
        graph = AdHocDigraph()
        # One batched round (the bulk join path on the sparse core —
        # the only way an N=10⁵ setup finishes in bench-friendly time).
        graph.apply_round(setup or ())
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
        return perf_seconds() - start


def drive_event_rounds(
    rounds: list[list[Event]],
    *,
    mode: str = "sparse",
    setup: list[Event] | None = None,
) -> float:
    """Apply round-structured ``rounds`` via batched application.

    The round-commit counterpart of :func:`drive_event_loop`: each
    round goes through
    :meth:`~repro.topology.digraph.AdHocDigraph.apply_round` (one
    batched topology commit — all-join rounds take the sparse core's
    streaming :meth:`~repro.topology.digraph.AdHocDigraph.bulk_join`
    path), then the same V1 conflict queries run per delta against the
    post-round graph, batched through
    :meth:`~repro.topology.digraph.AdHocDigraph.conflict_pairs`.
    ``setup`` builds the starting topology untimed, as in
    :func:`drive_event_loop`.  Used by the large-n
    bench's ``sparse`` and ``sparse-rounds`` entries.
    """
    with _pinned_core(mode):
        graph = AdHocDigraph()
        graph.apply_round(setup or ())
        start = perf_seconds()
        for round_events in rounds:
            deltas = graph.apply_round(round_events)
            for delta in deltas:
                if delta.kind == "leave" or delta.node_id not in graph:
                    continue
                graph.conflict_pairs(graph.v1_slots(graph.slot_of(delta.node_id)))
        return perf_seconds() - start


def run_large_n_bench(
    *,
    n: int = 10000,
    runs: int = 1,
    seed: int = 2001,
    max_mem_mb: float | None = 512.0,
) -> list[dict]:
    """Time an N≥2000 join trace: array vs sparse core, plus rounds.

    The large-N regime the sparse core unlocks.  The arena scales with
    ``n`` at the paper's node density (side ∝ √n, so average degree
    stays at the paper's ≈23 instead of the graph degenerating toward a
    clique), and the ``large-join``-family entries are produced:

    - ``large-join/array`` — the dense-block array core, whose O(N²)
      adjacency/C2 blocks and N-wide candidate masks dominate here;
      dropped above N=10⁴ (its blocks alone would need several GiB);
    - ``large-join/sparse`` — the vectorized CSR-row core driving the
      whole join trace as *one* :func:`drive_event_rounds` round (the
      streaming ``bulk_join`` path) with per-delta batched V1 queries.
      Carries the CI-gated ``speedup_vs_array`` when the array leg ran,
      and is subject to ``max_mem_mb``: the bench *fails*
      (:class:`ConfigurationError`) if the sparse run's tracemalloc
      peak exceeds the ceiling, which pins the O(N+E) memory claim,
      not just the speed;
    - ``large-rounds/sparse-rounds`` — waypoint-style substep mobility
      rounds (each round moves a cohort through several intermediate
      positions) driven through
      :meth:`~repro.topology.digraph.AdHocDigraph.apply_round`,
      reporting ``round_batch_speedup`` over applying the same rounds
      event-by-event.  Batching wins exactly when rounds revisit nodes
      — intermediate edge flips cancel before any C2 work happens.

    Away from the canonical N=10⁴ point the scenario labels carry the
    node count (``large-join-100000``), so the regression gate's
    ``(scenario, mode)`` keys never mix entries from different N.
    Every entry records ``peak_mem_mb`` from its untimed traced
    warmup.  ``n`` below 2000 is a configuration error: smaller traces
    are the paper's sizes, which ``perfbench`` measures end to end.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    if n < 2000:
        raise ConfigurationError(f"large-n bench needs n >= 2000, got {n}")
    side = 100.0 * math.sqrt(n / 120.0)
    rng = np.random.default_rng(seed)
    events: list[Event] = [JoinEvent(c) for c in sample_configs(n, rng, area=(side, side))]
    join_label = "large-join" if n == 10000 else f"large-join-{n}"
    rounds_label = "large-rounds" if n == 10000 else f"large-rounds-{n}"
    entries: list[dict] = []
    timings: dict[str, float] = {}
    peaks: dict[str, float] = {}
    if n <= _ARRAY_MAX_LARGE_N:
        peaks["array"] = traced_peak_mb(lambda: drive_event_loop(events, mode="array"))  # warmup
        wall = float(np.median([drive_event_loop(events, mode="array") for _ in range(runs)]))
        timings["array"] = wall
        entries.append(
            {
                "scenario": join_label,
                "n": n,
                "mode": "array",
                "events": len(events),
                "runs": runs,
                "wall_seconds": wall,
                "events_per_sec": len(events) / wall if wall > 0 else float("inf"),
                "peak_mem_mb": peaks["array"],
            }
        )

    def drive_bulk() -> float:
        return drive_event_rounds([events], mode="sparse")

    peaks["sparse"] = traced_peak_mb(drive_bulk)  # warmup
    wall = float(np.median([drive_bulk() for _ in range(runs)]))
    timings["sparse"] = wall
    sparse_entry = {
        "scenario": join_label,
        "n": n,
        "mode": "sparse",
        "events": len(events),
        "runs": runs,
        "wall_seconds": wall,
        "events_per_sec": len(events) / wall if wall > 0 else float("inf"),
        "peak_mem_mb": peaks["sparse"],
    }
    if "array" in timings:
        sparse_entry["speedup_vs_array"] = timings["array"] / wall
    entries.append(sparse_entry)
    if max_mem_mb is not None and peaks["sparse"] > max_mem_mb:
        raise ConfigurationError(
            f"sparse {join_label} peaked at {peaks['sparse']:.1f} MiB, "
            f"over the {max_mem_mb:.1f} MiB ceiling — the O(N+E) memory "
            "contract of the sparse core is broken"
        )

    rounds = _substep_rounds(events, side, seed=seed + 1)
    round_events = sum(len(r) for r in rounds)
    flat = [ev for r in rounds for ev in r]

    def drive_rounds() -> float:
        return drive_event_rounds(rounds, mode="sparse", setup=events)

    peak = traced_peak_mb(drive_rounds)  # warmup
    seq_wall = float(
        np.median([drive_event_loop(flat, mode="sparse", setup=events) for _ in range(runs)])
    )
    wall = float(np.median([drive_rounds() for _ in range(runs)]))
    entries.append(
        {
            "scenario": rounds_label,
            "n": n,
            "mode": "sparse-rounds",
            "events": round_events,
            "runs": runs,
            "wall_seconds": wall,
            "events_per_sec": round_events / wall if wall > 0 else float("inf"),
            "peak_mem_mb": peak,
            "round_batch_speedup": seq_wall / wall if wall > 0 else float("inf"),
        }
    )
    return entries


def _substep_rounds(
    join_events: list[Event],
    side: float,
    *,
    seed: int,
    rounds: int = 20,
    cohort: int = 16,
    substeps: int = 8,
) -> list[list[Event]]:
    """Waypoint substep mobility rounds over the joined population.

    Each round picks a cohort of nodes and walks every member toward a
    fresh waypoint in ``substeps`` intermediate moves — the round shape
    where batched application shines, because only each walker's final
    position survives the round.
    """
    rng = np.random.default_rng(seed)
    ids = [ev.config.node_id for ev in join_events]
    out: list[list[Event]] = []
    for _ in range(rounds):
        sel = rng.choice(ids, size=min(cohort, len(ids)), replace=False)
        starts = rng.uniform(0.0, side, size=(len(sel), 2))
        targets = rng.uniform(0.0, side, size=(len(sel), 2))
        round_events: list[Event] = []
        for step in range(1, substeps + 1):
            frac = step / substeps
            pos = starts + frac * (targets - starts)
            round_events.extend(
                MoveEvent(int(nid), float(x), float(y))
                for nid, (x, y) in zip(sel.tolist(), pos.tolist())
            )
        out.append(round_events)
    return out


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
    :func:`drive_event_loop` on the array core twice — ``off`` with the
    obs layer disabled, ``on`` inside an :func:`repro.obs.enable` /
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

    Runs refuse to start while tracing is already enabled (e.g. under
    ``bench --trace``): the off leg would silently measure the on
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
            "the obs-overhead bench toggles tracing itself; rerun without --trace"
        )
    rng = np.random.default_rng(seed)
    events: list[Event] = [JoinEvent(c) for c in sample_configs(n, rng)]

    def drive() -> float:
        return sum(drive_event_loop(events, mode="array") for _ in range(inner))

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


_CKPT_MODES = ("copy", "full", "replay", "delta")


def _drive_checkpoints(
    mode: str,
    template: AdHocDigraph,
    rounds: list[list[Event]],
) -> tuple[float, int]:
    """Advance a producer through ``rounds``, checkpointing each one.

    Returns ``(checkpoint_wall, serialized_bytes)``.  Round application
    itself is *untimed* — it is identical across modes, and leaving it
    in would dilute every ratio toward 1 — so the wall isolates what
    each checkpointing discipline adds per round:

    - ``copy`` — a full in-process :meth:`~AdHocDigraph.copy`, the
      pre-CoW fork every live checkpoint paid;
    - ``full`` — a complete JSON snapshot serialize + restore, the
      cross-process path without deltas (bytes summed);
    - ``replay`` — no checkpoint: a consumer forks the shared base and
      replays the whole round prefix, so round ``k`` costs ``k`` round
      applications (what the delta chain saves a late joiner);
    - ``delta`` — CoW :meth:`~AdHocDigraph.fork` plus a serialized
      delta cut against the previous round's version, applied onto a
      consumer shadow that tracks the chain (bytes summed).
    """
    producer = template.copy()
    shadow = template.copy() if mode == "delta" else None
    base_version = producer.version
    wall = 0.0
    nbytes = 0
    for idx, round_events in enumerate(rounds):
        producer.apply_round(round_events)
        start = perf_seconds()
        if mode == "copy":
            producer.copy()
        elif mode == "full":
            blob = json.dumps(producer.snapshot(), separators=(",", ":"))
            nbytes += len(blob)
            AdHocDigraph.restore(json.loads(blob))
        elif mode == "replay":
            consumer = template.fork()
            for prefix_round in rounds[: idx + 1]:
                consumer.apply_round(prefix_round)
        else:
            producer.fork()
            blob = json.dumps(producer.delta_snapshot(base_version), separators=(",", ":"))
            nbytes += len(blob)
            shadow.apply_delta(json.loads(blob))
            base_version = producer.version
        wall += perf_seconds() - start
    if shadow is not None and shadow.version != producer.version:
        raise ConfigurationError(
            f"delta shadow diverged: consumer at version {shadow.version}, "
            f"producer at {producer.version}"
        )
    return wall, nbytes


def run_checkpoint_bench(
    *,
    n: int = 10000,
    runs: int = 1,
    rounds: int = 4,
    seed: int = 2001,
) -> list[dict]:
    """Price the four checkpoint disciplines on an N=10⁴ churn trace.

    Builds the canonical constant-density join population on the
    sparse core (untimed), then drives ``rounds`` waypoint churn rounds
    through :func:`_drive_checkpoints` once per mode.  Entries land
    under scenario ``large-ckpt`` (``large-ckpt-{n}`` away from the
    canonical point) with ``events`` = checkpoints taken, so
    ``events_per_sec`` reads as checkpoints/sec.  The ``delta`` entry
    carries the two CI-gated fields:

    - ``ckpt_delta_speedup`` — min(copy, full, replay wall) over the
      delta wall.  The floor is 2: the CoW fork + O(changes) delta
      must beat the *best* rival discipline, not just the strawman.
    - ``ckpt_bytes_ratio`` — serialized delta bytes over full-snapshot
      bytes, gated as a *ceiling* (≤0.2): if a delta ever degenerates
      into a near-full snapshot, the O(changes) claim is broken even
      if the wall clock still looks fine.

    Absolute byte counts are published alongside
    (``ckpt_delta_bytes`` / ``ckpt_full_bytes``) so the trajectory of
    both sides of the ratio stays machine-readable.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    if rounds < 2:
        raise ConfigurationError(f"checkpoint bench needs rounds >= 2, got {rounds}")
    side = 100.0 * math.sqrt(n / 120.0)
    rng = np.random.default_rng(seed)
    joins: list[Event] = [JoinEvent(c) for c in sample_configs(n, rng, area=(side, side))]
    with _pinned_core("sparse"):
        template = AdHocDigraph()
    template.apply_round(joins)
    churn = _substep_rounds(joins, side, seed=seed + 1, rounds=rounds)
    label = "large-ckpt" if n == 10000 else f"large-ckpt-{n}"
    entries: list[dict] = []
    walls: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for mode in _CKPT_MODES:
        peak = traced_peak_mb(lambda: _drive_checkpoints(mode, template, churn))  # warmup
        samples = [_drive_checkpoints(mode, template, churn) for _ in range(runs)]
        wall = float(np.median([w for w, _ in samples]))
        walls[mode] = wall
        sizes[mode] = samples[0][1]
        entries.append(
            {
                "scenario": label,
                "n": n,
                "mode": mode,
                "events": rounds,
                "runs": runs,
                "wall_seconds": wall,
                "events_per_sec": rounds / wall if wall > 0 else float("inf"),
                "peak_mem_mb": peak,
            }
        )
    delta_entry = entries[-1]
    rival = min(walls[m] for m in _CKPT_MODES if m != "delta")
    delta_entry["ckpt_delta_speedup"] = (
        rival / walls["delta"] if walls["delta"] > 0 else float("inf")
    )
    delta_entry["ckpt_bytes_ratio"] = (
        sizes["delta"] / sizes["full"] if sizes["full"] > 0 else float("inf")
    )
    delta_entry["ckpt_delta_bytes"] = sizes["delta"]
    delta_entry["ckpt_full_bytes"] = sizes["full"]
    return entries


def write_bench_json(entries: list[dict], out: Path | None = None) -> Path:
    """Write bench entries to ``out`` (default ``BENCH_eventloop.json``)."""
    path = _DEFAULT_OUT if out is None else out
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path
