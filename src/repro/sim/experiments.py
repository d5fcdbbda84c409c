"""The paper's evaluation experiments (section 5) as sweep specs.

Each function reproduces one figure sweep by specializing the matching
registered scenario (see :mod:`repro.sim.scenarios`) and handing it to
the unified orchestrator (:func:`repro.sim.sweep.run_sweep`), which
replays every workload single-pass against all strategies:

* :func:`run_join_experiment` — Fig 10(a-c): N sequential joins.
* :func:`run_range_sweep_experiment` — Fig 10(d-f): average-range sweep.
* :func:`run_power_experiment` — Fig 11(a-c): raisefactor sweep.
* :func:`run_movement_disp_experiment` — Fig 12(a): maxdisp sweep.
* :func:`run_movement_rounds_experiment` — Fig 12(b-d): round sweep.

Every data point is averaged over ``runs`` independent random networks
(paper: 100; default here: 5, overridable via the ``REPRO_RUNS``
environment variable or the ``runs`` argument).  Workloads are generated
once per run and replayed identically against every strategy; passing a
:class:`~repro.sim.results.ResultsBackend` makes re-invocations resume
from completed points.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.analysis.series import ExperimentSeries
from repro.errors import ConfigurationError
from repro.sim.control import PrecisionTarget, RunController
from repro.sim.random_networks import DEFAULT_MAX_RANGE, DEFAULT_MIN_RANGE
from repro.sim.executor import Executor
from repro.sim.registry import get_scenario
from repro.sim.results import ResultsBackend
from repro.sim.scenarios import MobilitySpec, PowerSpec
from repro.sim.sweep import run_sweep

# Re-exported for backward compatibility: the strategy catalog lives in
# repro.strategies now.
from repro.strategies import DEFAULT_STRATEGIES, make_strategy

__all__ = [
    "DEFAULT_STRATEGIES",
    "make_strategy",
    "run_join_experiment",
    "run_movement_disp_experiment",
    "run_movement_rounds_experiment",
    "run_power_experiment",
    "run_range_sweep_experiment",
]

_DEFAULT_SEED = 2001


# ----------------------------------------------------------------------
# Experiment 5.1 — node join (Fig 10 a-c) and range sweep (Fig 10 d-f)
# ----------------------------------------------------------------------
def run_join_experiment(
    n_values: Sequence[int] = (40, 60, 80, 100, 120),
    *,
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    warm_start: bool | None = None,
    precision: "RunController | PrecisionTarget | float | None" = None,
) -> ExperimentSeries:
    """Fig 10(a-c): N nodes join one by one; final metrics vs N."""
    spec = replace(
        get_scenario("fig10-join"),
        min_range=min_range,
        max_range=max_range,
        strategies=tuple(strategies),
        sweep_values=tuple(float(n) for n in n_values),
    )
    return run_sweep(
        spec,
        runs=runs,
        seed=seed,
        processes=processes,
        store=store,
        resume=resume,
        executor=executor,
        warm_start=warm_start,
        precision=precision,
    )


def run_range_sweep_experiment(
    avg_ranges: Sequence[float] = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0),
    *,
    n: int = 100,
    spread: float = 5.0,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    warm_start: bool | None = None,
    precision: "RunController | PrecisionTarget | float | None" = None,
) -> ExperimentSeries:
    """Fig 10(d-f): fixed N, sweep the average transmission range.

    The paper fixes ``maxr − minr = 5``; ``avg_ranges`` are the midpoints
    ``(minr + maxr) / 2``.
    """
    if spread <= 0:
        raise ConfigurationError(f"range spread must be positive, got {spread}")
    for avg in avg_ranges:
        if avg - spread / 2.0 <= 0:
            raise ConfigurationError(f"avg range {avg} too small for spread {spread}")
    spec = replace(
        get_scenario("fig10-range"),
        n=n,
        # The sweep re-centers [min_range, max_range] on each average;
        # only their difference (the spread) carries through.
        min_range=1.5 * spread,
        max_range=2.5 * spread,
        strategies=tuple(strategies),
        sweep_values=tuple(float(a) for a in avg_ranges),
    )
    return run_sweep(
        spec,
        runs=runs,
        seed=seed,
        processes=processes,
        store=store,
        resume=resume,
        executor=executor,
        warm_start=warm_start,
        precision=precision,
    )


# ----------------------------------------------------------------------
# Experiment 5.2 — power range increase (Fig 11 a-c)
# ----------------------------------------------------------------------
def run_power_experiment(
    raisefactors: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    *,
    n: int = 100,
    fraction: float = 0.5,
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    warm_start: bool | None = None,
    precision: "RunController | PrecisionTarget | float | None" = None,
) -> ExperimentSeries:
    """Fig 11(a-c): raise a random half's ranges by ``raisefactor``.

    Per the paper, each run starts from the post-join network of
    experiment 5.1 (N=100, same range interval) and reports deltas
    relative to it.  Run seeds are paired across raisefactors, so every
    sweep point perturbs the same base networks.
    """
    spec = replace(
        get_scenario("fig11-power"),
        n=n,
        min_range=min_range,
        max_range=max_range,
        power=PowerSpec(kind="raise", fraction=fraction),
        strategies=tuple(strategies),
        sweep_values=tuple(float(rf) for rf in raisefactors),
    )
    return run_sweep(
        spec,
        runs=runs,
        seed=seed,
        processes=processes,
        store=store,
        resume=resume,
        executor=executor,
        warm_start=warm_start,
        precision=precision,
    )


# ----------------------------------------------------------------------
# Experiment 5.3 — node movement (Fig 12 a-d)
# ----------------------------------------------------------------------
def run_movement_disp_experiment(
    maxdisps: Sequence[float] = (0.0, 10.0, 20.0, 40.0, 60.0, 80.0),
    *,
    n: int = 40,
    rounds: int = 1,
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    warm_start: bool | None = None,
    precision: "RunController | PrecisionTarget | float | None" = None,
) -> ExperimentSeries:
    """Fig 12(a): one round of moves, sweeping the max displacement.

    Run seeds are paired across ``maxdisps`` so each sweep point scales
    the *same* random walks.
    """
    spec = replace(
        get_scenario("fig12-move-disp"),
        n=n,
        min_range=min_range,
        max_range=max_range,
        mobility=MobilitySpec(kind="jumps", steps=rounds),
        strategies=tuple(strategies),
        sweep_values=tuple(float(d) for d in maxdisps),
    )
    return run_sweep(
        spec,
        runs=runs,
        seed=seed,
        processes=processes,
        store=store,
        resume=resume,
        executor=executor,
        warm_start=warm_start,
        precision=precision,
    )


def run_movement_rounds_experiment(
    round_count: int = 10,
    *,
    maxdisp: float = 40.0,
    n: int = 40,
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
    runs: int | None = None,
    seed: int = _DEFAULT_SEED,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    processes: int | None = None,
    store: ResultsBackend | None = None,
    resume: bool = True,
    executor: Executor | str | None = None,
    warm_start: bool | None = None,
    precision: "RunController | PrecisionTarget | float | None" = None,
) -> ExperimentSeries:
    """Fig 12(b-d): cumulative deltas after each of ``round_count`` rounds."""
    spec = replace(
        get_scenario("fig12-move-rounds"),
        n=n,
        min_range=min_range,
        max_range=max_range,
        mobility=MobilitySpec(kind="jumps", maxdisp=maxdisp),
        strategies=tuple(strategies),
        sweep_values=(float(round_count),),
    )
    return run_sweep(
        spec,
        runs=runs,
        seed=seed,
        processes=processes,
        store=store,
        resume=resume,
        executor=executor,
        warm_start=warm_start,
        precision=precision,
    )
