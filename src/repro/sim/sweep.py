"""The unified experiment orchestrator: one pipeline for every sweep.

Every evaluation in this repo — the paper's five figure experiments and
each registered extended scenario — runs through :func:`run_sweep`,
which stages the work through four pluggable layers:

1. **plan** — the scenario spec is resolved once per sweep value, per-run
   seeds derive from one master ``SeedSequence`` (paired across sweep
   values when the spec asks for it), and every (point, run) becomes a
   content-addressed :class:`~repro.sim.executor.TaskGroup`.  Tasks
   sharing an execution-timeline prefix (same run seed, same
   placement/join prefix token — see :mod:`repro.sim.timeline`) are
   grouped so execution walks them over one checkpoint tree instead of
   replaying the shared prefix per point;
2. **claim** — tasks whose artifacts already exist in the results
   backend (:mod:`repro.sim.results`) are served from cache;
3. **execute** — pending groups run on an
   :class:`~repro.sim.executor.Executor` (serial, process pool, or the
   store-queue worker drain), each replaying its workload *single-pass*
   against all strategies with
   :class:`~repro.sim.network.MultiStrategyReplay`;
4. **collect** — results fold into an
   :class:`~repro.analysis.series.ExperimentSeries` (persisted together
   with a run manifest when a store is given).

:class:`SweepSpec` is the frozen execution plan (scenario × runs ×
seed).  The paper figures have no entry point of their own: the CLI's
``fig10``/``fig11``/``fig12``/``all`` commands re-base the registered
``fig10-join`` … ``fig12-move-rounds`` specs and call :func:`run_sweep`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.analysis.series import ExperimentSeries
from repro.errors import ConfigurationError
from repro.sim.control import PrecisionTarget, RunController, resolve_precision
from repro.sim.executor import Executor, TaskGroup, resolve_executor
from repro.sim.registry import get_scenario
from repro.sim.results import ResultsBackend, seed_token, spec_digest
from repro.sim.results import point_key as _point_key
from repro.sim.runner import resolve_runs
from repro.sim.scenarios import ScenarioSpec, resolve_sweep

__all__ = ["SweepSpec", "build_sweep", "plan_additional_tasks", "plan_tasks", "run_sweep"]

#: Metric names of the absolute measure (end-state totals).
ABS_METRICS = ("max_color", "recodings", "messages")
#: Metric names of the delta measures (change from the join baseline).
DELTA_METRICS = ("delta_max_color", "delta_recodings", "delta_messages")

_DEFAULT_RUNS = 5
_DEFAULT_SEED = 2001


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep execution plan.

    ``points[i]`` is the scenario with its sweep axis pinned to
    ``scenario.sweep_values[i]``; ``seeds[i][r]`` is the
    ``SeedSequence`` driving run ``r`` of point ``i``.  With
    ``scenario.paired_runs`` the seed rows are identical across points,
    so every sweep value perturbs the same base networks.
    """

    scenario: ScenarioSpec
    points: tuple[ScenarioSpec, ...]
    seeds: tuple[tuple[np.random.SeedSequence, ...], ...]
    runs: int
    seed: int

    @property
    def sweep_key(self) -> str:
        """Content hash naming this exact sweep (spec × runs × seed)."""
        return spec_digest(self.scenario, extra={"runs": self.runs, "seed": self.seed})

    def tasks(self) -> list[tuple[int, int, ScenarioSpec, np.random.SeedSequence]]:
        """All (point index, run index, point spec, seed) work items."""
        return [
            (i, r, point, self.seeds[i][r])
            for i, point in enumerate(self.points)
            for r in range(self.runs)
        ]


def build_sweep(
    scenario: ScenarioSpec | str,
    *,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] | None = None,
    env_runs: str | None = None,
) -> SweepSpec:
    """Resolve a scenario (or registered name) into a :class:`SweepSpec`.

    Raises :class:`ConfigurationError` for empty sweeps, invalid
    resolved points (e.g. a range sweep value driving ``min_range``
    non-positive) and ``delta_rounds`` measures with more than one
    sweep value — all *before* any computation starts.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if strategies is not None:
        spec = replace(spec, strategies=tuple(strategies))
    if not spec.sweep_values:
        raise ConfigurationError(f"scenario {spec.name!r} has no sweep values")
    if spec.measure == "delta_rounds" and len(spec.sweep_values) != 1:
        raise ConfigurationError(
            "delta_rounds scenarios sweep within one trace and need exactly "
            f"one sweep value, got {spec.sweep_values}"
        )
    runs = resolve_runs(runs, _DEFAULT_RUNS, env_runs)
    points = tuple(resolve_sweep(spec, value) for value in spec.sweep_values)
    # Seed derivation is prefix-stable in `runs`: SeedSequence.spawn
    # numbers children from zero, so run r's seed depends only on
    # (seed, point, r) — never on how many runs were planned.  The
    # adaptive controller relies on this to extend a sweep's run count
    # while every already-computed point key stays valid.
    master = np.random.SeedSequence(seed)
    if spec.paired_runs:
        row = tuple(master.spawn(runs))
        seeds = tuple(row for _ in points)
    else:
        point_seqs = master.spawn(len(points))
        seeds = tuple(tuple(point_seqs[i].spawn(runs)) for i in range(len(points)))
    return SweepSpec(scenario=spec, points=points, seeds=seeds, runs=runs, seed=seed)


# ----------------------------------------------------------------------
# Stage 1: plan
# ----------------------------------------------------------------------
def _task_context(spec: ScenarioSpec, point: ScenarioSpec, i: int, r: int, seed) -> dict:
    return {
        "experiment": spec.series_id,
        "scenario": spec.name,
        "sweep_axis": spec.sweep_axis,
        "sweep_value": spec.sweep_values[i],
        "run": r,
        "seed": seed_token(seed),
        "measure": spec.measure,
        "strategies": list(point.strategies),
    }


def plan_tasks(sweep: SweepSpec) -> list[TaskGroup]:
    """Plan stage: every (point, run) as content-addressed task groups.

    Tasks that share an execution-timeline prefix — the same run seed
    *and* the same placement/join prefix token
    (:func:`repro.sim.timeline.prefix_token`, a digest of exactly the
    spec fields the placement draw consumes) — are planned into one
    group per run, so executors walk them over a shared checkpoint tree
    instead of replaying the common prefix per point.  In practice that
    groups paired sweeps over perturbation axes (``maxdisp``,
    ``raisefactor``, ``steps``, …); axes that touch the placement
    (``n``, ``avg_range``) key apart and stay singleton groups, as does
    every unpaired sweep (distinct seeds never share a draw).  Results
    are identical however the tasks group: a paired sweep run one value
    at a time plans no warm group and reproduces the grouped series.
    """
    from repro.sim.timeline import prefix_token

    spec = sweep.scenario
    keys = {(i, r): _point_key(point, point_seed) for i, r, point, point_seed in sweep.tasks()}
    contexts = {
        (i, r): _task_context(spec, point, i, r, point_seed)
        for i, r, point, point_seed in sweep.tasks()
    }
    tokens = {
        (i, r): prefix_token(point, point_seed) for i, r, point, point_seed in sweep.tasks()
    }
    # group per run by (seed, placement prefix); insertion order keeps
    # groups sorted by first (point, run) appearance
    rows: dict[tuple, list[tuple[int, int, ScenarioSpec]]] = {}
    for i, r, point, point_seed in sweep.tasks():
        row_key = (r, seed_token(point_seed), tokens[(i, r)])
        rows.setdefault(row_key, []).append((i, r, point))
    groups: list[TaskGroup] = []
    for members in rows.values():
        indices = tuple((i, r) for i, r, _ in members)
        groups.append(
            TaskGroup(
                indices=indices,
                points=tuple(point for _, _, point in members),
                seed=sweep.seeds[members[0][0]][members[0][1]],
                keys=tuple(keys[ix] for ix in indices),
                contexts=tuple(contexts[ix] for ix in indices),
                warm=len(members) > 1,
                stage_tokens=tuple(tokens[ix] for ix in indices),
            )
        )
    return groups


def plan_additional_tasks(
    sweep: SweepSpec,
    runs_per_point: Sequence[int],
    want: dict[int, int],
) -> list[TaskGroup]:
    """Plan only the *new* run tasks raising each point to ``want[i]``.

    Rebuilds the sweep at the highest requested run count (seed
    derivation is prefix-stable, so existing run seeds — and hence
    point keys — are unchanged) and keeps exactly the group members
    with ``runs_per_point[i] <= r < want[i]``.  Warm-start row groups
    survive intact when the controller raises whole paired rows.
    """
    if not want:
        return []
    new_runs = max(want.values())
    extended = build_sweep(sweep.scenario, runs=new_runs, seed=sweep.seed)
    target = {i: want.get(i, runs_per_point[i]) for i in range(len(sweep.points))}
    groups: list[TaskGroup] = []
    for group in plan_tasks(extended):
        keep = [m for m, (i, r) in enumerate(group.indices) if runs_per_point[i] <= r < target[i]]
        if not keep:
            continue
        groups.append(group if len(keep) == len(group.indices) else group.subset(keep))
    return groups


# ----------------------------------------------------------------------
# Stage 2: claim
# ----------------------------------------------------------------------
def claim_cached(
    groups: Sequence[TaskGroup], store: ResultsBackend | None, resume: bool
) -> tuple[dict[tuple[int, int], list], list[TaskGroup]]:
    """Claim stage: split planned groups into cached results and pending work.

    Partially cached warm groups shrink to their missing members (the
    shared baseline is still built only once for what remains).
    """
    results: dict[tuple[int, int], list] = {}
    if store is None or not resume:
        return results, list(groups)
    cached_points = store.load_points([key for group in groups for key in group.keys])
    pending: list[TaskGroup] = []
    for group in groups:
        missing = []
        for m, key in enumerate(group.keys):
            cached = cached_points.get(key)
            if cached is None:
                missing.append(m)
            else:
                results[group.indices[m]] = cached
        if not missing:
            continue
        pending.append(group if len(missing) == len(group.keys) else group.subset(missing))
    return results, pending


# ----------------------------------------------------------------------
# Stages 3+4: execute, collect
# ----------------------------------------------------------------------
def run_sweep(
    scenario: ScenarioSpec | str,
    *,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] | None = None,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    precision: RunController | PrecisionTarget | float | None = None,
) -> ExperimentSeries:
    """Run one sweep through the unified pipeline; return its series.

    ``scenario`` is a spec or registered name; ``runs`` defaults to 5
    (``REPRO_RUNS`` overrides).  ``executor`` selects the execution
    layer (``"serial"`` / ``"process"`` / ``"worker"`` or an
    :class:`~repro.sim.executor.Executor` instance); the default keeps
    the historical behavior of ``processes``.  Tasks share a
    checkpoint-tree prefix whenever their timelines allow it (see
    :func:`plan_tasks`).  With a ``store``, completed points are
    loaded instead of recomputed (unless ``resume=False``), fresh
    points are persisted as they land, and the assembled series plus a
    run manifest (spec fields, runs, seed, executor name, the
    orchestrator's conflict core, point keys, computed/cached split)
    are written.  The series ``notes`` field records the
    computed/cached split of this invocation.

    ``precision`` switches on adaptive run counts: ``runs`` becomes the
    *starting* budget per point and, after each collect pass, a
    :class:`~repro.sim.control.RunController` plans additional
    content-addressed run tasks for every point whose confidence
    interval is still wider than the target (a float is shorthand for a
    relative-CI target; see :class:`~repro.sim.control.PrecisionTarget`
    for the full knob set, including the ``max_runs`` hard cap).
    Incremental runs flow through the same claim/execute stages, so a
    store serves previously computed runs from cache and a repeated
    adaptive sweep reproduces the identical series without computing
    anything.
    """
    import os

    # Phase spans mirror the pipeline stages of the module docstring;
    # `minim-cdma report` keys its per-phase table off these names, and
    # the trace-completeness check pairs each execute span's `pending`
    # count against the task.compute spans the executors emit.
    with obs.span("sweep.plan", cat="sweep"):
        sweep = build_sweep(
            scenario,
            runs=runs,
            seed=seed,
            strategies=strategies,
            env_runs=os.environ.get("REPRO_RUNS"),
        )
        spec = sweep.scenario
        controller = resolve_precision(precision)
        exec_ = resolve_executor(executor, processes)
        groups = plan_tasks(sweep)
    with obs.span("sweep.claim", cat="sweep", scenario=spec.name, planned=len(groups)):
        results, pending = claim_cached(groups, store, resume)
    with obs.span(
        "sweep.execute", cat="sweep", scenario=spec.name, pending=len(pending), executor=exec_.name
    ):
        results.update(exec_.execute(pending, backend=store, resume=resume))
    computed = sum(len(g.indices) for g in pending)
    # plan_tasks already hashed every point key; harvest, don't rehash
    keys = {ix: key for g in groups for ix, key in zip(g.indices, g.keys)}

    runs_per_point = [sweep.runs] * len(sweep.points)
    passes = 0
    if controller is not None:
        while True:
            want = controller.plan(
                _point_samples(sweep, results, runs_per_point),
                runs_per_point,
                paired=spec.paired_runs,
            )
            extra = plan_additional_tasks(sweep, runs_per_point, want)
            if not extra:
                break
            with obs.span("sweep.claim", cat="sweep", scenario=spec.name, planned=len(extra)):
                extra_cached, extra_pending = claim_cached(extra, store, resume)
            results.update(extra_cached)
            with obs.span(
                "sweep.execute",
                cat="sweep",
                scenario=spec.name,
                pending=len(extra_pending),
                executor=exec_.name,
                adaptive_pass=passes + 1,
            ):
                results.update(exec_.execute(extra_pending, backend=store, resume=resume))
            computed += sum(len(g.indices) for g in extra_pending)
            keys.update({ix: key for g in extra for ix, key in zip(g.indices, g.keys)})
            for i, n in want.items():
                runs_per_point[i] = n
            passes += 1
        controller.runs_per_point = list(runs_per_point)
        controller.passes = passes

    with obs.span("sweep.collect", cat="sweep", scenario=spec.name):
        series = _assemble_series(sweep, results, runs_per_point)
    cached = len(keys) - computed
    series.notes = f"{computed} points computed, {cached} from cache"
    if controller is not None:
        series.notes += (
            f"; adaptive: {sum(runs_per_point)} total runs "
            f"({passes} extra pass{'es' if passes != 1 else ''})"
        )
    if store is not None:
        manifest = {
            "experiment": spec.series_id,
            "scenario": spec.name,
            "measure": spec.measure,
            "sweep_axis": spec.sweep_axis,
            "sweep_values": list(spec.sweep_values),
            "strategies": list(spec.strategies),
            "runs": sweep.runs,
            "seed": sweep.seed,
            "executor": exec_.name,
            "points": [
                keys[(i, r)]
                for i in range(len(sweep.points))
                for r in range(runs_per_point[i])
            ],
            "computed": computed,
            "cached": cached,
            "series_locator": f"{store.locator}::series/{spec.series_id}",
            # The series/<id> slot is latest-wins; this copy is
            # keyed by the sweep's content hash and never clobbered.
            "series": series.to_dict(),
        }
        manifest_key = sweep.sweep_key
        if controller is not None:
            import dataclasses

            target = dataclasses.asdict(controller.target)
            manifest["adaptive"] = {
                "target": target,
                "runs_per_point": list(runs_per_point),
                "total_runs": sum(runs_per_point),
                "passes": passes,
            }
            # a fixed and an adaptive sweep from the same base spec are
            # different computations; key their manifests apart
            manifest_key = spec_digest(
                spec, extra={"runs": sweep.runs, "seed": sweep.seed, "precision": target}
            )
        store.save_series(series)
        store.save_manifest(manifest_key, manifest)
    return series


def _point_samples(
    sweep: SweepSpec, results: dict[tuple[int, int], list], runs_per_point: Sequence[int]
) -> list[np.ndarray]:
    """Per point, that point's collected results with the run axis first.

    The shared substrate of the collect stage and the run controller:
    ``samples[i]`` has shape ``(runs_per_point[i], strategies, metrics)``
    (plus a rounds axis for ``delta_rounds`` scenarios, which have a
    single point).
    """
    if sweep.scenario.measure == "delta_rounds":
        data = np.asarray([results[(0, r)] for r in range(runs_per_point[0])], dtype=np.float64)
        if data.ndim != 4:
            raise ConfigurationError(
                f"scenario {sweep.scenario.name!r} produced no perturbation rounds to sample"
            )
        return [data]
    return [
        np.asarray([results[(i, r)] for r in range(runs_per_point[i])], dtype=np.float64)
        for i in range(len(sweep.points))
    ]


def _assemble_series(
    sweep: SweepSpec,
    results: dict[tuple[int, int], list],
    runs_per_point: Sequence[int] | None = None,
) -> ExperimentSeries:
    """Collect stage: fold point results into an :class:`ExperimentSeries`.

    Run counts may differ per point (adaptive sweeps), so means and
    standard errors are computed per point over that point's own runs.
    A single-run point reports stderr 0.0 — ``ddof=1`` on one sample
    would put NaN into the stored series, and the controller separately
    refuses to treat ``n = 1`` as converged, so the guard never hides a
    point that still needs runs.
    """
    spec = sweep.scenario
    strategies = spec.strategies
    if runs_per_point is None:
        runs_per_point = [sweep.runs] * len(sweep.points)
    counts = list(runs_per_point)
    samples = _point_samples(sweep, results, counts)

    def _mean_sem(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = block.shape[0]
        mean = block.mean(axis=0)
        if n > 1:
            sem = block.std(axis=0, ddof=1) / np.sqrt(n)
        else:  # no variance estimate from one run; never NaN in a store
            sem = np.zeros_like(mean)
        return mean, sem

    if spec.measure == "delta_rounds":
        # samples[0]: run, strategy, round, metric -> x-axis is the round
        mean, sem = _mean_sem(samples[0])
        means = mean.transpose(1, 0, 2)  # round, strategy, metric
        sems = sem.transpose(1, 0, 2)
        x_values = [float(t) for t in range(1, means.shape[0] + 1)]
        metric_names = DELTA_METRICS
    else:
        stats = [_mean_sem(block) for block in samples]
        means = np.stack([m for m, _ in stats])  # x, strategy, metric
        sems = np.stack([s for _, s in stats])
        x_values = [float(v) for v in spec.sweep_values]
        metric_names = DELTA_METRICS if spec.measure == "delta" else ABS_METRICS
    metrics = {
        m: {s: means[:, si, mi].tolist() for si, s in enumerate(strategies)}
        for mi, m in enumerate(metric_names)
    }
    stderr = {
        m: {s: sems[:, si, mi].tolist() for si, s in enumerate(strategies)}
        for mi, m in enumerate(metric_names)
    }
    return ExperimentSeries(
        experiment=spec.series_id,
        x_label=spec.series_x_label,
        x_values=x_values,
        metrics=metrics,
        runs=max(counts),
        stderr=stderr,
    )
