"""Fig 12 — the node-movement experiment (panels a-d).

Panel (a) sweeps the maximum displacement for a single round of moves;
panels (b-d) run multiple rounds at fixed ``maxdisp`` and report
cumulative deltas per round.
"""

from benchmarks.conftest import (
    MAXDISPS,
    MOVE_N,
    MOVE_ROUNDS,
    RUNS,
    SEED,
    assert_checks,
    emit,
    figure,
    run_once,
)
from repro.analysis.shape_checks import check_move_shapes
from repro.sim.sweep import run_sweep


def _rounds_series():
    return run_sweep(figure("fig12-move-rounds", (MOVE_ROUNDS,), n=MOVE_N), runs=RUNS, seed=SEED)


def test_fig12a_delta_recodings_vs_maxdisp(benchmark):
    """Fig 12(a): Δ recodings vs maxdisp (1 round) — Minim below CP."""
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig12-move-disp", MAXDISPS, n=MOVE_N),
            runs=RUNS,
            seed=SEED,
            strategies=("Minim", "CP"),
        ),
    )
    emit(series, "delta_recodings", "Fig 12(a) Δ(# recodings) vs maxdisp")
    minim = series.series("delta_recodings", "Minim")
    cp = series.series("delta_recodings", "CP")
    assert all(m <= c for m, c in zip(minim, cp))
    # CP rejoins every mover, so it pays ~N recodes even at maxdisp 0;
    # Minim pays none.
    assert minim[0] == 0.0
    assert cp[-1] >= MOVE_N * 0.5


def test_fig12b_delta_max_color_vs_rounds(benchmark):
    """Fig 12(b): Δ max color vs round — flat-ish, Minim within a few."""
    series = run_once(benchmark, _rounds_series)
    emit(series, "delta_max_color", "Fig 12(b) Δ(max color) vs RoundNo")
    checks = [c for c in check_move_shapes(series) if "max_color" in c.claim]
    assert_checks(checks)


def test_fig12c_delta_recodings_vs_rounds_all(benchmark):
    """Fig 12(c): Δ recodings vs round (all strategies)."""
    series = run_once(benchmark, _rounds_series)
    emit(series, "delta_recodings", "Fig 12(c) Δ(# recodings) vs RoundNo")
    checks = [c for c in check_move_shapes(series) if "recodings" in c.claim]
    assert_checks(checks)


def test_fig12d_delta_recodings_vs_rounds_zoom(benchmark):
    """Fig 12(d): Δ recodings — the widening Minim/CP gap.

    Section 5.3: "for RoundNo = 10, the Minim achieves 400 fewer
    recodings than CP!" — the absolute number is workload-scaled here,
    but the gap must grow monotonically with rounds.
    """
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig12-move-rounds", (MOVE_ROUNDS,), n=MOVE_N),
            runs=RUNS,
            seed=SEED,
            strategies=("Minim", "CP"),
        ),
    )
    emit(series, "delta_recodings", "Fig 12(d) Δ(# recodings) vs RoundNo (zoom)")
    minim = series.series("delta_recodings", "Minim")
    cp = series.series("delta_recodings", "CP")
    gaps = [c - m for m, c in zip(minim, cp)]
    assert all(g >= 0 for g in gaps)
    assert gaps == sorted(gaps), "Minim/CP gap must widen with rounds"
    assert gaps[-1] >= 2.0 * gaps[0]
