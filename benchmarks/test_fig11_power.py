"""Fig 11 — the power-range-increase experiment (panels a-c).

A random half of the nodes raise their ranges by ``raisefactor``;
metrics are deltas against the post-join baseline network.
"""

from benchmarks.conftest import (
    JOIN_N_POINT,
    RAISEFACTORS,
    RUNS,
    SEED,
    assert_checks,
    emit,
    figure,
    run_once,
)
from repro.analysis.shape_checks import check_power_shapes
from repro.sim.sweep import run_sweep


def _power_series():
    return run_sweep(figure("fig11-power", RAISEFACTORS, n=JOIN_N_POINT), runs=RUNS, seed=SEED)


def test_fig11a_delta_max_color(benchmark):
    """Fig 11(a): Δ max color vs raisefactor — CP beats Minim here.

    Section 5.2: "The CP approach performs better than the Minim minimal
    approach in terms of maximum color index assigned to the network."
    """
    series = run_once(benchmark, _power_series)
    emit(series, "delta_max_color", "Fig 11(a) Δ(max color) vs raisefactor")
    checks = [c for c in check_power_shapes(series) if "max_color" in c.claim]
    assert_checks(checks)


def test_fig11b_delta_recodings_all(benchmark):
    """Fig 11(b): Δ recodings vs raisefactor (all strategies)."""
    series = run_once(benchmark, _power_series)
    emit(series, "delta_recodings", "Fig 11(b) Δ(# recodings) vs raisefactor")
    checks = [c for c in check_power_shapes(series) if "recodings" in c.claim]
    assert_checks(checks)


def test_fig11c_delta_recodings_zoom(benchmark):
    """Fig 11(c): Δ recodings — Minim vs CP zoom.

    Section 5.2: Minim "outperforms it by a huge margin in the total
    number of recodings" — at the largest raisefactor CP pays at least
    ~1.3x Minim's recodings in our reproduction.
    """
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig11-power", RAISEFACTORS, n=JOIN_N_POINT),
            runs=RUNS,
            seed=SEED,
            strategies=("Minim", "CP"),
        ),
    )
    emit(series, "delta_recodings", "Fig 11(c) Δ(# recodings) vs raisefactor (zoom)")
    minim = series.series("delta_recodings", "Minim")
    cp = series.series("delta_recodings", "CP")
    assert all(m <= c for m, c in zip(minim, cp))
    assert cp[-1] >= 1.3 * max(minim[-1], 1e-9)
