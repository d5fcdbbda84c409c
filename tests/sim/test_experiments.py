"""The paper's five figure sweeps through ``run_sweep`` (small instances)."""

from dataclasses import replace

import pytest

from repro.analysis.series import ExperimentSeries
from repro.errors import ConfigurationError
from repro.sim.registry import get_scenario
from repro.sim.runner import parallel_map, resolve_runs
from repro.sim.sweep import run_sweep
from repro.strategies import make_strategy


def figure(name, sweep_values, **overrides):
    """The registered paper scenario ``name``, re-based to ``sweep_values``."""
    return replace(get_scenario(name), sweep_values=tuple(sweep_values), **overrides)


class TestMakeStrategy:
    @pytest.mark.parametrize("name", ["Minim", "CP", "BBB", "GreedySeq", "Minim/w1"])
    def test_known(self, name):
        assert make_strategy(name) is not None

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_strategy("nope")


class TestRunnerHelpers:
    def test_parallel_map_serial(self):
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_parallel_map_processes(self):
        assert parallel_map(_double, [1, 2, 3], processes=2) == [2, 4, 6]

    def test_resolve_runs(self):
        assert resolve_runs(7, 5, "9") == 7
        assert resolve_runs(None, 5, "9") == 9
        assert resolve_runs(None, 5, None) == 5
        with pytest.raises(ValueError):
            resolve_runs(0, 5, None)


def _double(x):
    return x * 2


class TestJoinExperiment:
    def test_structure_and_monotonicity(self):
        series = run_sweep(figure("fig10-join", (10, 20)), runs=2, seed=5)
        assert isinstance(series, ExperimentSeries)
        assert series.x_values == [10.0, 20.0]
        assert set(series.metrics) == {"max_color", "recodings", "messages"}
        assert set(series.strategies()) == {"Minim", "CP", "BBB"}
        # more joins, more recodings for everyone
        for s in series.strategies():
            rec = series.series("recodings", s)
            assert rec[1] > rec[0]

    def test_recodings_at_least_n(self):
        series = run_sweep(figure("fig10-join", (15,)), runs=2, seed=6)
        for s in ("Minim", "CP"):
            assert series.series("recodings", s)[0] >= 15

    def test_deterministic_given_seed(self):
        a = run_sweep(figure("fig10-join", (12,)), runs=2, seed=7)
        b = run_sweep(figure("fig10-join", (12,)), runs=2, seed=7)
        assert a.metrics == b.metrics

    def test_processes_do_not_change_results(self):
        a = run_sweep(figure("fig10-join", (12,)), runs=3, seed=8)
        b = run_sweep(figure("fig10-join", (12,)), runs=3, seed=8, processes=3)
        assert a.metrics == b.metrics

    def test_stderr_populated(self):
        series = run_sweep(figure("fig10-join", (10,)), runs=3, seed=9)
        assert set(series.stderr) == set(series.metrics)


class TestRangeSweep:
    def test_colors_grow_with_density(self):
        series = run_sweep(figure("fig10-range", (10.0, 40.0), n=25), runs=2, seed=10)
        for s in series.strategies():
            colors = series.series("max_color", s)
            assert colors[1] > colors[0]

    def test_too_small_avg_range_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(figure("fig10-range", (2.0,), n=5), runs=1, seed=0)


class TestPowerExperiment:
    def test_raisefactor_one_is_noop(self):
        series = run_sweep(figure("fig11-power", (1.0,), n=20), runs=2, seed=11)
        for s in ("Minim", "CP"):
            assert series.series("delta_recodings", s)[0] == 0.0
            assert series.series("delta_max_color", s)[0] == 0.0

    def test_minim_recodes_less_than_cp(self):
        series = run_sweep(figure("fig11-power", (3.0,), n=30), runs=3, seed=12)
        assert (
            series.value_at("delta_recodings", "Minim", 3.0)
            <= series.value_at("delta_recodings", "CP", 3.0)
        )


class TestMovementExperiments:
    def test_disp_zero_no_recodings_minim(self):
        series = run_sweep(figure("fig12-move-disp", (0.0,), n=15), runs=2, seed=13)
        assert series.value_at("delta_recodings", "Minim", 0.0) == 0.0

    def test_rounds_cumulative(self):
        series = run_sweep(figure("fig12-move-rounds", (3,), n=12), runs=2, seed=14)
        assert series.x_values == [1.0, 2.0, 3.0]
        for s in series.strategies():
            rec = series.series("delta_recodings", s)
            assert rec == sorted(rec)  # cumulative -> non-decreasing

    def test_strategy_subset(self):
        series = run_sweep(
            figure("fig12-move-rounds", (2,), n=10), runs=1, seed=15, strategies=("Minim", "CP")
        )
        assert set(series.strategies()) == {"Minim", "CP"}


class TestSeriesRendering:
    def test_table_and_markdown(self):
        series = run_sweep(figure("fig10-join", (8,)), runs=1, seed=16)
        txt = series.table("max_color")
        assert "Minim" in txt and "fig10-join" in txt
        md = series.to_markdown("recodings")
        assert md.startswith("| N |")
        assert "|---|" in md
        assert series.render_all().count("[fig10-join]") == 3
