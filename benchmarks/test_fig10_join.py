"""Fig 10 — the node-join experiment (panels a-f).

Panels (a-c) sweep the station count N; panels (d-f) sweep the average
transmission range at fixed N.  Metrics: final max color index and total
recodings, per strategy.
"""

from benchmarks.conftest import (
    JOIN_N_POINT,
    JOIN_N_VALUES,
    RANGE_AVGS,
    RUNS,
    SEED,
    assert_checks,
    emit,
    figure,
    run_once,
)
from repro.analysis.shape_checks import check_join_shapes
from repro.sim.sweep import run_sweep


def _join_series():
    return run_sweep(figure("fig10-join", JOIN_N_VALUES), runs=RUNS, seed=SEED)


def _range_series():
    return run_sweep(figure("fig10-range", RANGE_AVGS, n=JOIN_N_POINT), runs=RUNS, seed=SEED)


def test_fig10a_max_color_vs_n(benchmark):
    """Fig 10(a): max color index vs N — BBB <= Minim <= CP."""
    series = run_once(benchmark, _join_series)
    emit(series, "max_color", "Fig 10(a) Total # Colors vs N")
    checks = [c for c in check_join_shapes(series) if "max_color" in c.claim]
    assert_checks(checks)


def test_fig10b_recodings_vs_n_all(benchmark):
    """Fig 10(b): total recodings vs N — BBB off the chart."""
    series = run_once(benchmark, _join_series)
    emit(series, "recodings", "Fig 10(b) # Recodings vs N (all strategies)")
    checks = [c for c in check_join_shapes(series) if "BBB" in c.claim and "recodings" in c.claim]
    assert_checks(checks)


def test_fig10c_recodings_vs_n_zoom(benchmark):
    """Fig 10(c): total recodings vs N — Minim vs CP zoom."""
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig10-join", JOIN_N_VALUES), runs=RUNS, seed=SEED, strategies=("Minim", "CP")
        ),
    )
    emit(series, "recodings", "Fig 10(c) # Recodings vs N (Minim vs CP)")
    minim = series.series("recodings", "Minim")
    cp = series.series("recodings", "CP")
    assert all(m <= c for m, c in zip(minim, cp))
    # "an almost linear variation (in N)": the per-join recode rate stays
    # bounded (recodings grow at most ~2x faster than N).
    n0, n1 = series.x_values[0], series.x_values[-1]
    assert minim[-1] / minim[0] <= 2.0 * (n1 / n0)


def test_fig10d_max_color_vs_avg_range(benchmark):
    """Fig 10(d): max color index vs average range."""
    series = run_once(benchmark, _range_series)
    emit(series, "max_color", "Fig 10(d) # Colors vs (minr+maxr)/2")
    # Density drives the palette: colors grow monotonically with range.
    for s in series.strategies():
        colors = series.series("max_color", s)
        assert all(a <= b + 1e-9 for a, b in zip(colors, colors[1:]))
    # BBB stays the best (near-optimal centralized baseline).
    for avg, bbb, minim in zip(
        series.x_values,
        series.series("max_color", "BBB"),
        series.series("max_color", "Minim"),
    ):
        assert bbb <= minim + 2.0, f"avgR={avg}"


def test_fig10e_recodings_vs_avg_range_all(benchmark):
    """Fig 10(e): total recodings vs average range (all strategies)."""
    series = run_once(benchmark, _range_series)
    emit(series, "recodings", "Fig 10(e) # Recodings vs (minr+maxr)/2")
    assert all(
        c <= b
        for c, b in zip(series.series("recodings", "CP"), series.series("recodings", "BBB"))
    )


def test_fig10f_recodings_vs_avg_range_zoom(benchmark):
    """Fig 10(f): total recodings vs average range (Minim vs CP)."""
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig10-range", RANGE_AVGS, n=JOIN_N_POINT),
            runs=RUNS,
            seed=SEED,
            strategies=("Minim", "CP"),
        ),
    )
    emit(series, "recodings", "Fig 10(f) # Recodings vs (minr+maxr)/2 (Minim vs CP)")
    assert all(
        m <= c
        for m, c in zip(series.series("recodings", "Minim"), series.series("recodings", "CP"))
    )
