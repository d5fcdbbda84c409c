"""The benchmark's workloads and the pass that runs one of them.

Every workload is a list of sweeps driven serially, in this process,
through the public entry points :func:`repro.sim.sweep.run_sweep` and
:func:`repro.sim.results.open_backend`.  One *pass* runs every sweep of
the workload once (for store workloads: a cold leg and a resume leg per
backend).  The workload seed is passed to ``run_sweep(seed=...)``, so
the same seed replays the same networks.
"""

from __future__ import annotations

import re
import shutil
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["WORKLOADS", "SMOKE_WORKLOADS", "Sweep", "SweepResult", "Workload", "run_pass"]

PAPER_LINEUP = ("Minim", "CP", "BBB")


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call: a registered scenario, re-based by ``overrides``."""

    scenario: str
    runs: int
    strategies: tuple[str, ...]
    overrides: tuple[tuple[str, object], ...] = ()

    def spec(self):
        from repro.sim.registry import get_scenario

        spec = get_scenario(self.scenario)
        return replace(spec, strategies=self.strategies, **dict(self.overrides))

    def expected_points(self) -> int:
        """How many x-values the series has (what a raising sweep loses)."""
        spec = self.spec()
        if spec.measure == "delta_rounds":
            return int(spec.sweep_values[0])
        return len(spec.sweep_values)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple[Sweep, ...]
    #: Store kinds the pass runs through (cold leg then resume leg each);
    #: empty means no store.
    backends: tuple[str, ...] = ()

    @property
    def runs_per_point(self) -> int:
        return self.sweeps[0].runs


def _paper_figs(smoke: bool) -> Workload:
    tiny = {
        "fig10-join": (("sweep_values", (8, 12)),),
        "fig10-range": (("n", 12), ("sweep_values", (15.0, 35.0))),
        "fig11-power": (("n", 12), ("sweep_values", (1.0, 3.0))),
        "fig12-move-disp": (("n", 10), ("sweep_values", (0.0, 40.0))),
        "fig12-move-rounds": (("n", 10), ("sweep_values", (3,))),
    }
    return Workload(
        name="paper-figs",
        why="all five paper figures with the paper lineup: the ROADMAP headline",
        sweeps=tuple(
            Sweep(name, 1, PAPER_LINEUP, tiny[name] if smoke else ()) for name in tiny
        ),
    )


def _churn_cp(smoke: bool) -> Workload:
    return Workload(
        name="churn-cp",
        why="joins, leave/rejoin cycles and moves at n=400-800 under CP: topology-heavy",
        sweeps=(
            Sweep("hotspot-churn", 1, ("CP",), (("n", 30 if smoke else 800),)),
            Sweep("random-waypoint", 1, ("CP",), (("n", 20 if smoke else 400),)),
        ),
    )


def _paired_store(smoke: bool) -> Workload:
    tiny = {
        "fig11-power": (("n", 12), ("sweep_values", (1.0, 3.0))),
        "fig12-move-disp": (("n", 10), ("sweep_values", (0.0, 40.0))),
        "fig12-move-rounds": (("n", 10), ("sweep_values", (3,))),
    }
    return Workload(
        name="paired-store",
        why="paired sweeps cold into SQLite and JSON stores, then resumed: checkpoints and I/O",
        sweeps=tuple(
            Sweep(name, 2 if smoke else 16, ("CP",), tiny[name] if smoke else ())
            for name in tiny
        ),
        backends=("sqlite", "json"),
    )


WORKLOADS = {w.name: w for w in (_paper_figs(False), _churn_cp(False), _paired_store(False))}
SMOKE_WORKLOADS = {w.name: w for w in (_paper_figs(True), _churn_cp(True), _paired_store(True))}


@dataclass
class SweepResult:
    """What one ``run_sweep`` call of a pass produced."""

    sweep: Sweep
    backend: str | None
    leg: str  # "cold" (computes) or "resume" (must be all cache hits)
    series: object | None
    computed: int | None  # points computed, from the series notes
    counters: dict[str, float] = field(default_factory=dict)  # registry deltas


_COMPUTED = re.compile(r"^(\d+) points computed")


def _run_one(sweep: Sweep, seed: int, backend, kind, leg) -> SweepResult:
    import repro.sim.sweep as sweep_mod
    from repro.obs import metrics

    before = dict(metrics.REGISTRY.counters)
    spec = sweep.spec()
    try:
        # looked up on the module at call time, so the traced pass's
        # wrapper on run_sweep is the one called
        series = sweep_mod.run_sweep(
            spec, runs=sweep.runs, seed=seed, executor="serial", store=backend
        )
    except Exception:  # a raising sweep is a counted failure, not a crash
        traceback.print_exc(file=sys.stderr)
        return SweepResult(sweep, kind, leg, None, None)
    after = metrics.REGISTRY.counters
    counters = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
    match = _COMPUTED.match(series.notes)
    computed = int(match.group(1)) if match else None
    return SweepResult(sweep, kind, leg, series, computed, counters)


def run_pass(workload: Workload, seed: int, workdir: Path) -> list[SweepResult]:
    """Run every sweep of ``workload`` once; stores are made fresh under ``workdir``."""
    if not workload.backends:
        return [_run_one(s, seed, None, None, "cold") for s in workload.sweeps]
    from repro.sim.results import open_backend

    out: list[SweepResult] = []
    for kind in workload.backends:
        root = workdir / f"store-{kind}"
        root.mkdir(parents=True)
        path = root / ("store.sqlite" if kind == "sqlite" else "store")
        try:
            for leg in ("cold", "resume"):
                backend = open_backend(path, kind)
                out.extend(_run_one(s, seed, backend, kind, leg) for s in workload.sweeps)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return out


def logical_events(workload: Workload, seed: int) -> int:
    """Trace events one pass replays logically (checkpoint-skipped ones included).

    Every sweep call counts its full trace, cache-served resume legs
    included, so sharing and caching show up as throughput.
    """
    from repro.sim.sweep import build_sweep
    from repro.sim.timeline import build_plan

    per_round = 0
    for sweep in workload.sweeps:
        plan = build_sweep(sweep.spec(), runs=sweep.runs, seed=seed)
        per_round += sum(len(build_plan(point, s).events) for _, _, point, s in plan.tasks())
    legs = 2 * len(workload.backends) if workload.backends else 1
    return per_round * legs
