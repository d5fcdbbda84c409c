"""Declarative scenario engine: placement × mobility × churn × power.

The paper's evaluation replays five fixed sweeps.  This module opens the
workload space explored by the follow-on literature — clustered
deployments (Liu et al., *Optimal Discrete Power Control in
Poisson-Clustered Ad Hoc Networks*) and cross-layer dynamics (Comaniciu
& Poor, *Energy Efficient Hierarchical Cross-Layer Design*) — behind a
single declarative :class:`ScenarioSpec`:

* **placement** — how node positions are drawn (uniform, Thomas-process
  Poisson clusters, hotspot);
* **mobility** — post-join movement (random waypoint, uniform jumps);
* **churn** — leave/rejoin cycles with uniform or hotspot re-placement;
* **power** — a raisefactor schedule over a random node fraction;
* **strategies**, a **sweep axis** with its values, and a **measure**
  (end-state metrics, deltas from the post-join baseline, or per-round
  cumulative deltas).

Specs are frozen dataclasses, picklable, and registered by name in
:mod:`repro.sim.registry`.  A spec's one-run workload is produced by
:func:`scenario_phases` as a *phased* trace — the baseline join phase
followed by perturbation rounds — which is what the unified sweep
orchestrator (:func:`repro.sim.sweep.run_sweep`) replays single-pass
against every strategy.  The paper's five figure sweeps are themselves
registered scenarios (``fig10-join`` … ``fig12-move-rounds``), so every
experiment — paper figures and the extended catalog alike — runs
through the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.events.base import Event, JoinEvent, LeaveEvent
from repro.sim.mobility import RandomWaypointModel
from repro.sim.random_networks import (
    DEFAULT_AREA,
    DEFAULT_MAX_RANGE,
    DEFAULT_MIN_RANGE,
    sample_configs,
)
from repro.sim.registry import register_scenario
from repro.sim.workloads import movement_rounds, power_raise_workload
from repro.strategies import DEFAULT_STRATEGIES
from repro.topology.node import NodeConfig

__all__ = [
    "BUILTIN_SCENARIOS",
    "ChurnSpec",
    "MobilitySpec",
    "PlacementSpec",
    "PowerSpec",
    "ScenarioSpec",
    "TracePhases",
    "place_nodes",
    "resolve_sweep",
    "scenario_from_dict",
    "scenario_phases",
    "scenario_plan",
    "scenario_trace",
]

#: Valid ``ScenarioSpec.measure`` values.
MEASURES = ("absolute", "delta", "delta_rounds")


# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementSpec:
    """How initial node positions are drawn.

    ``kind``: ``"uniform"`` (the paper's generator),
    ``"poisson-cluster"`` (Thomas process: Poisson-many uniform parents,
    Gaussian scatter of ``cluster_sigma`` around a parent chosen per
    node), or ``"hotspot"`` (``hotspot_fraction`` of nodes inside a
    central disc of ``hotspot_radius``, the rest uniform).
    """

    kind: str = "uniform"
    cluster_rate: float = 4.0
    cluster_sigma: float = 8.0
    hotspot_fraction: float = 0.7
    hotspot_radius: float = 20.0

    _KINDS = ("uniform", "poisson-cluster", "hotspot")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"placement kind must be one of {self._KINDS}")
        if not (0.0 <= self.hotspot_fraction <= 1.0):
            raise ConfigurationError(
                f"hotspot_fraction must be in [0, 1], got {self.hotspot_fraction}"
            )
        if self.cluster_rate <= 0 or self.cluster_sigma <= 0:
            raise ConfigurationError("cluster_rate and cluster_sigma must be positive")


@dataclass(frozen=True)
class MobilitySpec:
    """Post-join movement: ``"none"``, ``"waypoint"`` or ``"jumps"``.

    ``"waypoint"`` runs :class:`~repro.sim.mobility.RandomWaypointModel`
    for ``steps`` rounds with per-leg speeds in
    ``[speed_min, speed_max]``; ``"jumps"`` replays the paper's uniform
    random jumps (``maxdisp``) for ``steps`` rounds.
    """

    kind: str = "none"
    steps: int = 0
    speed_min: float = 1.0
    speed_max: float = 5.0
    pause_steps: int = 0
    maxdisp: float = 40.0

    _KINDS = ("none", "waypoint", "jumps")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"mobility kind must be one of {self._KINDS}")
        if self.steps < 0:
            raise ConfigurationError(f"mobility steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class ChurnSpec:
    """Leave/rejoin cycles: ``"none"``, ``"uniform"`` or ``"hotspot"``.

    Each of ``cycles`` rounds picks ``fraction`` of the nodes to leave
    and rejoin; ``"uniform"`` re-places them uniformly over the arena,
    ``"hotspot"`` inside a central disc of ``hotspot_radius`` (crowd
    convergence).
    """

    kind: str = "none"
    cycles: int = 0
    fraction: float = 0.2
    hotspot_radius: float = 25.0

    _KINDS = ("none", "uniform", "hotspot")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"churn kind must be one of {self._KINDS}")
        if not (0.0 <= self.fraction <= 1.0):
            raise ConfigurationError(f"churn fraction must be in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class PowerSpec:
    """Power schedule: ``"none"`` or ``"raise"``.

    ``"raise"`` multiplies the ranges of a random ``fraction`` of nodes
    by ``raisefactor`` (the paper's experiment 5.2 perturbation).
    """

    kind: str = "none"
    raisefactor: float = 2.0
    fraction: float = 0.5

    _KINDS = ("none", "raise")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"power kind must be one of {self._KINDS}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully declarative simulation scenario.

    The event trace of one run is: sequential joins of the placed nodes
    (the *baseline* phase), then mobility rounds, churn cycles and the
    power schedule (the *perturbation* rounds).  ``sweep_axis`` names
    the spec field the x-axis varies (``n`` / ``avg_range`` / ``steps``
    / ``maxdisp`` / ``fraction`` / ``cycles`` / ``raisefactor``) over
    ``sweep_values``.

    ``measure`` selects what each data point reports:

    * ``"absolute"`` — end-state totals (max color / recodings /
      messages), the Fig 10 style;
    * ``"delta"`` — change from the post-baseline snapshot to the end
      of the trace (Fig 11 / Fig 12(a) style);
    * ``"delta_rounds"`` — cumulative deltas sampled after *each*
      perturbation round of a single trace (Fig 12(b-d) style); the
      sweep must then have exactly one value and the series x-axis is
      the round number.

    ``paired_runs`` reuses the same per-run seeds across sweep values,
    so each sweep point perturbs the same base networks (the paper does
    this for the raisefactor and maxdisp sweeps).  ``experiment_id``
    overrides the series id (default ``scenario-<name>``) and
    ``x_label`` the series x-axis label (default the sweep axis).
    """

    name: str
    description: str
    n: int = 100
    min_range: float = DEFAULT_MIN_RANGE
    max_range: float = DEFAULT_MAX_RANGE
    area: tuple[float, float] = DEFAULT_AREA
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    power: PowerSpec = field(default_factory=PowerSpec)
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    sweep_axis: str = "n"
    sweep_values: tuple[float, ...] = ()
    measure: str = "absolute"
    paired_runs: bool = False
    experiment_id: str = ""
    x_label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if not (0 < self.min_range <= self.max_range):
            raise ConfigurationError(
                f"need 0 < min_range <= max_range, got ({self.min_range}, {self.max_range})"
            )
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigurationError(
                f"sweep_axis must be one of {tuple(_SWEEP_AXES)}, got {self.sweep_axis!r}"
            )
        if self.measure not in MEASURES:
            raise ConfigurationError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not self.strategies:
            raise ConfigurationError("scenario needs at least one strategy")

    @property
    def series_id(self) -> str:
        """The experiment id its series carry (``scenario-<name>`` default)."""
        return self.experiment_id or f"scenario-{self.name}"

    @property
    def series_x_label(self) -> str:
        """The series x-axis label (sweep axis or round counter)."""
        if self.x_label:
            return self.x_label
        return "round" if self.measure == "delta_rounds" else self.sweep_axis


# ----------------------------------------------------------------------
# Sweep resolution
# ----------------------------------------------------------------------
def _sweep_n(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, n=int(v))


def _sweep_avg_range(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    spread = spec.max_range - spec.min_range
    return replace(spec, min_range=v - spread / 2.0, max_range=v + spread / 2.0)


def _sweep_steps(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, mobility=replace(spec.mobility, steps=int(v)))


def _sweep_maxdisp(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, mobility=replace(spec.mobility, maxdisp=float(v)))


def _sweep_fraction(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, churn=replace(spec.churn, fraction=float(v)))


def _sweep_cycles(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, churn=replace(spec.churn, cycles=int(v)))


def _sweep_raisefactor(spec: ScenarioSpec, v: float) -> ScenarioSpec:
    return replace(spec, power=replace(spec.power, raisefactor=float(v)))


_SWEEP_AXES = {
    "n": _sweep_n,
    "avg_range": _sweep_avg_range,
    "steps": _sweep_steps,
    "maxdisp": _sweep_maxdisp,
    "fraction": _sweep_fraction,
    "cycles": _sweep_cycles,
    "raisefactor": _sweep_raisefactor,
}


def resolve_sweep(spec: ScenarioSpec, value: float) -> ScenarioSpec:
    """``spec`` with its sweep axis pinned to ``value``."""
    return _SWEEP_AXES[spec.sweep_axis](spec, value)


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from ``dataclasses.asdict`` output.

    The inverse of ``dataclasses.asdict`` for the spec tree (nested
    placement/mobility/churn/power specs, tuple-valued fields), used to
    round-trip fully resolved sweep points through the task descriptors
    of the worker executor.  Validation re-runs on construction, so a
    tampered descriptor fails loudly.
    """
    spec = dict(data)
    try:
        return ScenarioSpec(
            **{
                **spec,
                "area": tuple(spec["area"]),
                "placement": PlacementSpec(**spec["placement"]),
                "mobility": MobilitySpec(**spec["mobility"]),
                "churn": ChurnSpec(**spec["churn"]),
                "power": PowerSpec(**spec["power"]),
                "strategies": tuple(spec["strategies"]),
                "sweep_values": tuple(spec["sweep_values"]),
            }
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed scenario payload: {exc}") from exc


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def _hotspot_points(
    count: int, area: tuple[float, float], radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform samples from the central disc, clipped to the arena."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    cx, cy = area[0] / 2.0, area[1] / 2.0
    xs = np.clip(cx + r * np.cos(theta), 0.0, area[0])
    ys = np.clip(cy + r * np.sin(theta), 0.0, area[1])
    return np.stack([xs, ys], axis=1)


def place_nodes(spec: ScenarioSpec, rng: np.random.Generator) -> list[NodeConfig]:
    """Sample ``spec.n`` node configurations per the placement model.

    Ids are ``1..n``; ranges are uniform in ``[min_range, max_range]``
    for every placement kind (only the position law varies).
    """
    p = spec.placement
    n = spec.n
    width, height = spec.area
    if p.kind == "uniform":
        return sample_configs(
            n, rng, area=spec.area, min_range=spec.min_range, max_range=spec.max_range
        )
    if p.kind == "poisson-cluster":
        # Thomas process, conditioned on n points total: Poisson-many
        # uniform parents, each node scattered (Gaussian) around a
        # uniformly chosen parent.
        parents = max(1, int(rng.poisson(p.cluster_rate)))
        px = rng.uniform(0.0, width, size=parents)
        py = rng.uniform(0.0, height, size=parents)
        which = rng.integers(0, parents, size=n)
        xs = np.clip(px[which] + rng.normal(0.0, p.cluster_sigma, size=n), 0.0, width)
        ys = np.clip(py[which] + rng.normal(0.0, p.cluster_sigma, size=n), 0.0, height)
    else:  # hotspot
        k = int(round(n * p.hotspot_fraction))
        hot = _hotspot_points(k, spec.area, p.hotspot_radius, rng)
        xs = np.concatenate([hot[:, 0], rng.uniform(0.0, width, size=n - k)])
        ys = np.concatenate([hot[:, 1], rng.uniform(0.0, height, size=n - k)])
    ranges = rng.uniform(spec.min_range, spec.max_range, size=n)
    return [
        NodeConfig(i + 1, float(xs[i]), float(ys[i]), float(ranges[i])) for i in range(n)
    ]


# ----------------------------------------------------------------------
# Event-trace construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TracePhases:
    """One run's workload, split into measurement phases.

    ``baseline`` is the sequential join phase every experiment starts
    from; ``rounds`` are the perturbation checkpoints that follow (one
    entry per mobility round / churn cycle, plus one for the power
    schedule).  Delta measures snapshot metrics after ``baseline``;
    ``delta_rounds`` additionally samples after every round.
    """

    configs: tuple[NodeConfig, ...]
    baseline: tuple[Event, ...]
    rounds: tuple[tuple[Event, ...], ...]

    @property
    def events(self) -> list[Event]:
        """The flat event sequence (baseline + all rounds, in order)."""
        out: list[Event] = list(self.baseline)
        for round_events in self.rounds:
            out.extend(round_events)
        return out


def _mobility_rounds(
    spec: ScenarioSpec, configs: list[NodeConfig], rng: np.random.Generator
) -> list[list[Event]]:
    m = spec.mobility
    if m.kind == "none" or m.steps == 0:
        return []
    if m.kind == "jumps":
        rounds = movement_rounds(configs, m.steps, m.maxdisp, rng, area=spec.area)
        return [list(round_events) for round_events in rounds]
    model = RandomWaypointModel(
        configs,
        rng,
        speed_range=(m.speed_min, m.speed_max),
        pause_steps=m.pause_steps,
        area=spec.area,
    )
    return [list(round_events) for round_events in model.run(m.steps)]


def _churn_rounds(
    spec: ScenarioSpec, configs: list[NodeConfig], rng: np.random.Generator
) -> list[list[Event]]:
    c = spec.churn
    if c.kind == "none" or c.cycles == 0:
        return []
    rounds: list[list[Event]] = []
    by_id = {cfg.node_id: cfg for cfg in configs}
    k = int(round(len(configs) * c.fraction))
    for _ in range(c.cycles):
        cycle: list[Event] = []
        chosen = rng.choice(len(configs), size=k, replace=False)
        leavers = [configs[int(i)].node_id for i in chosen]
        cycle.extend(LeaveEvent(v) for v in leavers)
        if c.kind == "hotspot":
            pts = _hotspot_points(k, spec.area, c.hotspot_radius, rng)
        else:
            pts = np.stack(
                [
                    rng.uniform(0.0, spec.area[0], size=k),
                    rng.uniform(0.0, spec.area[1], size=k),
                ],
                axis=1,
            )
        for j, v in enumerate(leavers):
            cfg = by_id[v]
            cycle.append(JoinEvent(cfg.moved_to(float(pts[j, 0]), float(pts[j, 1]))))
        rounds.append(cycle)
    return rounds


def scenario_phases(spec: ScenarioSpec, rng: np.random.Generator) -> TracePhases:
    """One run's phased workload for an already-resolved spec.

    The trace is: sequential joins (baseline), then one round per
    mobility step, one per churn cycle, and one for the power schedule —
    deterministic given ``rng``'s state, so every strategy replays a
    byte-identical event sequence.
    """
    configs = place_nodes(spec, rng)
    baseline: list[Event] = [JoinEvent(cfg) for cfg in configs]
    rounds: list[list[Event]] = _mobility_rounds(spec, configs, rng)
    rounds.extend(_churn_rounds(spec, configs, rng))
    if spec.power.kind == "raise":
        rounds.append(
            list(
                power_raise_workload(
                    configs, spec.power.raisefactor, rng, fraction=spec.power.fraction
                )
            )
        )
    return TracePhases(
        configs=tuple(configs),
        baseline=tuple(baseline),
        rounds=tuple(tuple(r) for r in rounds),
    )


def scenario_trace(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[list[NodeConfig], list[Event]]:
    """One run's flat ``(configs, events)`` for an already-resolved spec.

    Convenience wrapper over :func:`scenario_phases` for consumers that
    do not care about phase boundaries (benchmarks, trace archiving).
    """
    phases = scenario_phases(spec, rng)
    return list(phases.configs), phases.events


def scenario_plan(spec: ScenarioSpec, rng: np.random.Generator):
    """One run's staged, content-keyed :class:`~repro.sim.timeline.TracePlan`.

    The checkpoint-timeline view of :func:`scenario_phases`: the same
    events, segmented into stages (placement/join, then one stage per
    perturbation round) whose chained content keys are what the
    execution layer shares across tasks.  Plans round-trip through
    :func:`repro.sim.trace.save_trace` with their keys intact.
    """
    from repro.sim.timeline import plan_from_phases

    return plan_from_phases(
        scenario_phases(spec, rng), strategies=spec.strategies, measure=spec.measure
    )


# ----------------------------------------------------------------------
# Built-in catalog
# ----------------------------------------------------------------------
#: The registered built-in scenarios: the paper's five figure sweeps
#: plus six workloads the paper cannot express.
BUILTIN_SCENARIOS: tuple[ScenarioSpec, ...] = tuple(
    register_scenario(spec)
    for spec in (
        # -- the paper's evaluation (section 5) as sweep specs ---------
        ScenarioSpec(
            name="fig10-join",
            description="Paper Fig 10(a-c): N nodes join one by one; final metrics vs N.",
            experiment_id="fig10-join",
            x_label="N",
            sweep_axis="n",
            sweep_values=(40, 60, 80, 100, 120),
        ),
        ScenarioSpec(
            name="fig10-range",
            description="Paper Fig 10(d-f): fixed N, sweep the average transmission range.",
            experiment_id="fig10-range",
            x_label="avgR",
            n=100,
            min_range=17.5,
            max_range=22.5,  # spread maxr - minr = 5, per the paper
            sweep_axis="avg_range",
            sweep_values=(5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0),
        ),
        ScenarioSpec(
            name="fig11-power",
            description="Paper Fig 11(a-c): raise a random half's ranges by raisefactor.",
            experiment_id="fig11-power",
            x_label="raisefactor",
            n=100,
            power=PowerSpec(kind="raise", fraction=0.5),
            sweep_axis="raisefactor",
            sweep_values=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
            measure="delta",
            paired_runs=True,
        ),
        ScenarioSpec(
            name="fig12-move-disp",
            description="Paper Fig 12(a): one round of moves, sweeping the max displacement.",
            experiment_id="fig12-move-disp",
            x_label="maxdisp",
            n=40,
            mobility=MobilitySpec(kind="jumps", steps=1, maxdisp=40.0),
            sweep_axis="maxdisp",
            sweep_values=(0.0, 10.0, 20.0, 40.0, 60.0, 80.0),
            measure="delta",
            paired_runs=True,
        ),
        ScenarioSpec(
            name="fig12-move-rounds",
            description="Paper Fig 12(b-d): cumulative deltas after each movement round.",
            experiment_id="fig12-move-rounds",
            x_label="round",
            n=40,
            mobility=MobilitySpec(kind="jumps", steps=10, maxdisp=40.0),
            sweep_axis="steps",
            sweep_values=(10,),
            measure="delta_rounds",
            paired_runs=True,
        ),
        # -- extended workloads beyond the paper ------------------------
        ScenarioSpec(
            name="poisson-cluster",
            description="Thomas-process clustered placement (Poisson parents, Gaussian scatter).",
            placement=PlacementSpec(kind="poisson-cluster", cluster_rate=5.0, cluster_sigma=8.0),
            sweep_axis="n",
            sweep_values=(40, 80, 120),
        ),
        ScenarioSpec(
            name="random-waypoint",
            description="Random-waypoint mobility rounds after a uniform join phase.",
            n=40,
            mobility=MobilitySpec(kind="waypoint", steps=4, speed_min=2.0, speed_max=8.0),
            sweep_axis="steps",
            sweep_values=(2, 4, 8),
        ),
        ScenarioSpec(
            name="uniform-churn",
            description="Leave/rejoin cycles with uniform re-placement over the arena.",
            n=60,
            churn=ChurnSpec(kind="uniform", cycles=2, fraction=0.2),
            sweep_axis="fraction",
            sweep_values=(0.1, 0.2, 0.4),
        ),
        ScenarioSpec(
            name="hotspot-churn",
            description="Leave/rejoin cycles converging into a central hotspot disc.",
            n=60,
            churn=ChurnSpec(kind="hotspot", cycles=2, fraction=0.2, hotspot_radius=20.0),
            sweep_axis="fraction",
            sweep_values=(0.1, 0.2, 0.4),
        ),
        ScenarioSpec(
            name="dense-urban",
            description="Dense short-range deployment: many nodes, ranges 8-12 units.",
            min_range=8.0,
            max_range=12.0,
            sweep_axis="n",
            sweep_values=(80, 120, 160),
        ),
        ScenarioSpec(
            name="sparse-long-range",
            description="Sparse long-range deployment: few nodes, ranges 45-60 units.",
            min_range=45.0,
            max_range=60.0,
            sweep_axis="n",
            sweep_values=(16, 24, 32),
        ),
    )
)
