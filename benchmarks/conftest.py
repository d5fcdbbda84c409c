"""Benchmark harness configuration.

Every figure panel of the paper has one bench below this directory; a
bench regenerates the panel's series (honestly re-running the sweep
under ``benchmark.pedantic`` with a single round), prints the rows, and
asserts the paper's qualitative shape where one is claimed.

Scaling knobs (environment):

* ``REPRO_RUNS``       — runs averaged per data point (default 3 here;
  the paper used 100).
* ``REPRO_FULL_GRID``  — set to 1 to use the paper's full parameter
  grids instead of the reduced defaults.

Reproduce a paper-fidelity run with::

    REPRO_RUNS=100 REPRO_FULL_GRID=1 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.sim.registry import get_scenario

RUNS = int(os.environ.get("REPRO_RUNS", "3"))
FULL = os.environ.get("REPRO_FULL_GRID", "0") == "1"

# Paper grids vs reduced defaults.
JOIN_N_VALUES = (40, 60, 80, 100, 120) if FULL else (40, 80, 120)
JOIN_N_POINT = 100 if FULL else 60  # N for the range/power sweeps
RANGE_AVGS = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0) if FULL else (5.0, 25.0, 45.0, 65.0)
RAISEFACTORS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0) if FULL else (1.0, 2.0, 4.0, 6.0)
MOVE_N = 40 if FULL else 30
MAXDISPS = (0.0, 10.0, 20.0, 40.0, 60.0, 80.0) if FULL else (0.0, 20.0, 40.0, 80.0)
MOVE_ROUNDS = 10 if FULL else 5
SEED = 2001


def figure(name: str, sweep_values, **overrides):
    """The registered paper scenario ``name``, re-based to ``sweep_values``."""
    return replace(get_scenario(name), sweep_values=tuple(sweep_values), **overrides)


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (experiments are seconds-long sweeps)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit(series, metric: str, panel: str) -> None:
    """Print one panel's rows in the paper's format."""
    print(f"\n=== {panel} ===")
    print(series.table(metric))


def assert_checks(checks) -> None:
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(c)
    assert not failed, "; ".join(str(c) for c in failed)


@pytest.fixture(scope="session")
def bench_params():
    return {
        "runs": RUNS,
        "full": FULL,
        "seed": SEED,
    }
