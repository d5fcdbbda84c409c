"""Self-time attribution for the traced pass, kept outside the program.

The traced pass wraps each layer's public functions *at the consumer's
binding* — the module attribute or class attribute the caller actually
looks up at call time.  Names a module imports by value
(``from repro.coloring.dsatur import dsatur_color_matrix``) are copies,
so wrapping the defining module would intercept nothing: the BBB
kernels are wrapped as ``repro.coloring.bbb.<kernel>``, the Minim
matcher as ``repro.strategies.minim.join.max_weight_matching``, and so
on.  Methods are wrapped on the class, which every instance consults.

Every wrapper pushes a frame on one shared stack, so a layer's *self*
time excludes the wrapped layers it calls (a lane's self time excludes
its kernels and topology queries).  The self times of all layers plus
the time spent outside every layer add up to the traced wall exactly;
``LayerClock.attributed`` is the first part.

Per-call durations go into :class:`LogHistogram`, whose log-spaced
buckets give p50/p90/p99 without keeping samples.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

__all__ = ["LayerClock", "LayerStat", "LogHistogram", "layer_bindings", "instrumented"]

#: The four event handlers every strategy implements.
HANDLERS = ("on_join", "on_leave", "on_move", "on_power_change")

#: Backend classes by the kind name the store metrics carry.
STORE_KINDS = ("sqlite", "json")


class LogHistogram:
    """Durations folded into log-spaced buckets, 8 per octave from 0.1 µs.

    A bucket spans a factor of 2**(1/8) (about 9%), so a quantile is
    known to within that factor from a few hundred integer counters.
    """

    __slots__ = ("counts", "n")

    _PER_OCTAVE = 8
    _FLOOR_S = 1e-7

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0

    def add(self, seconds: float) -> None:
        if seconds > self._FLOOR_S:
            bucket = int(math.log2(seconds / self._FLOOR_S) * self._PER_OCTAVE)
        else:
            bucket = 0
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.n += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile in seconds (bucket geometric midpoint); 0 if empty."""
        if not self.n:
            return 0.0
        rank = q * self.n
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= rank:
                break
        return self._FLOOR_S * 2 ** ((bucket + 0.5) / self._PER_OCTAVE)


class LayerStat:
    """Calls, inclusive time, self time and per-call durations of one layer."""

    __slots__ = ("calls", "total_s", "self_s", "hist")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hist = LogHistogram()


class LayerClock:
    """A call-stack profiler over a fixed set of wrapped functions."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        # One child-time accumulator per open call; slot 0 collects the
        # time spent inside outermost layers.
        self._stack = [0.0]

    @property
    def attributed(self) -> float:
        """Seconds spent inside any wrapped layer (sum of all self times)."""
        return self._stack[0]

    def stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as (one binding of) layer ``name``."""
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                stat.hist.add(elapsed)

        return timed


def layer_bindings() -> dict[str, list[tuple[object, str]]]:
    """``{layer: [(owner, attribute), ...]}`` — every binding the trace wraps.

    Owners are modules (for functions imported by value into their
    consumer) or classes (for methods).  ``executor.compute`` is
    :func:`repro.sim.executor.compute_group`, whose self time is the
    timeline walker's own work; ``executor.execute`` and ``sweep.run``
    are the serial executor and :func:`repro.sim.sweep.run_sweep`, whose
    self times are the executor and sweep overheads.
    """
    import repro.coloring.bbb as bbb
    import repro.coloring.constraints as constraints
    import repro.sim.executor as executor
    import repro.sim.sweep as sweep
    import repro.sim.timeline as timeline
    import repro.strategies.cp.join as cp_join
    import repro.strategies.cp.power as cp_power
    import repro.strategies.cp.selection as cp_selection
    import repro.strategies.minim.join as minim_join
    import repro.strategies.minim.power as minim_power
    from repro.sim.network import StrategyLane
    from repro.sim.results import JsonDirBackend, SqliteBackend
    from repro.strategies.bbb_global import BBBGlobalStrategy
    from repro.strategies.cp.strategy import CPStrategy
    from repro.strategies.minim.strategy import MinimStrategy
    from repro.topology.digraph import AdHocDigraph

    table: dict[str, list[tuple[object, str]]] = {
        "topology.apply": [(AdHocDigraph, "apply_event")],
        "topology.query": [
            (bbb, "conflict_adjacency"),
            (constraints, "conflict_neighbors"),
            (cp_power, "conflict_neighbors"),
            (cp_selection, "conflict_neighbors"),
            (cp_selection, "k_hop_neighbors"),
            (minim_join, "join_partition"),
            (cp_join, "join_partition"),
        ],
        "lane.bbb": [(BBBGlobalStrategy, h) for h in HANDLERS],
        "lane.minim": [(MinimStrategy, h) for h in HANDLERS],
        "lane.cp": [(CPStrategy, h) for h in HANDLERS],
        "coloring.dsatur": [(bbb, "dsatur_color_matrix")],
        "coloring.smallest_last": [(bbb, "smallest_last_order")],
        "coloring.greedy": [(bbb, "greedy_color_matrix")],
        "coloring.forbidden": [(minim_join, "forbidden_colors"), (minim_power, "forbidden_colors")],
        "matching.max_weight": [(minim_join, "max_weight_matching")],
        "network.measure": [(StrategyLane, "react")],
        "timeline.plan": [(timeline, "build_plan")],
        "ckpt.checkpoint": [(timeline.CheckpointTree, "checkpoint")],
        "ckpt.resume": [(timeline.CheckpointTree, "resume")],
        "executor.compute": [(executor, "compute_group")],
        "executor.execute": [(executor.SerialExecutor, "execute")],
        "sweep.run": [(sweep, "run_sweep")],
    }
    for kind, cls in zip(STORE_KINDS, (SqliteBackend, JsonDirBackend)):
        table[f"store.{kind}.save_point"] = [(cls, "save_point")]
        table[f"store.{kind}.load_points"] = [(cls, "load_points")]
        table[f"store.{kind}.put_ckpt"] = [(cls, "put_checkpoint")]
        table[f"store.{kind}.get_ckpt"] = [(cls, "get_checkpoint")]
        table[f"store.{kind}.manifest"] = [(cls, "save_series"), (cls, "save_manifest")]
        table[f"store.{kind}.open"] = [(cls, "__init__")]
    return table


@contextmanager
def instrumented(clock: LayerClock) -> Iterator[LayerClock]:
    """Install ``clock``'s wrappers on every binding; restore them on exit.

    A class attribute that was inherited (``JsonDirBackend.save_point``
    resolves to the base class) is shadowed on the subclass and deleted
    again afterwards, so each backend kind is timed apart.
    """
    undo: list[tuple[object, str, bool, object]] = []
    try:
        for name, bindings in layer_bindings().items():
            clock.stat(name)  # every layer reports, called or not
            for owner, attr in bindings:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                undo.append((owner, attr, own, vars(owner).get(attr)))
                setattr(owner, attr, clock.wrap(name, original))
        yield clock
    finally:
        for owner, attr, own, original in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
