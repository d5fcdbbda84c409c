"""The unified sweep orchestrator (every experiment's single entry point)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.sim.registry import get_scenario
from repro.sim.sweep import build_sweep, run_sweep

#: The paper's five figure sweeps, registered as scenarios.
PAPER_SCENARIOS = (
    "fig10-join",
    "fig10-range",
    "fig11-power",
    "fig12-move-disp",
    "fig12-move-rounds",
)

#: The extended catalog introduced alongside the scenario engine.
EXTENDED_SCENARIOS = (
    "poisson-cluster",
    "random-waypoint",
    "uniform-churn",
    "hotspot-churn",
    "dense-urban",
    "sparse-long-range",
)


def _tiny(name: str):
    """A shrunk registered spec for fast smoke runs."""
    spec = get_scenario(name)
    small = replace(spec, n=min(spec.n, 12), strategies=("Minim",))
    if spec.measure == "delta_rounds":
        return replace(small, sweep_values=(2.0,))
    return replace(small, sweep_values=(spec.sweep_values[0],))


class TestOneOrchestratorForEverything:
    @pytest.mark.parametrize("name", PAPER_SCENARIOS + EXTENDED_SCENARIOS)
    def test_every_registered_scenario_runs_through_run_sweep(self, name):
        series = run_sweep(_tiny(name), runs=1, seed=11)
        spec = get_scenario(name)
        assert series.experiment == spec.series_id
        expected = (
            {"delta_max_color", "delta_recodings", "delta_messages"}
            if spec.measure in ("delta", "delta_rounds")
            else {"max_color", "recodings", "messages"}
        )
        assert set(series.metrics) == expected
        assert series.strategies() == ["Minim"]

    def test_run_by_registered_name(self):
        series = run_sweep("fig10-join", runs=1, strategies=("Minim",))
        assert series.experiment == "fig10-join"
        assert series.x_label == "N"
        assert series.x_values == [40.0, 60.0, 80.0, 100.0, 120.0]


class TestBuildSweep:
    def test_empty_sweep_rejected(self):
        spec = replace(get_scenario("fig10-join"), sweep_values=())
        with pytest.raises(ConfigurationError, match="no sweep values"):
            build_sweep(spec)

    def test_delta_rounds_needs_single_value(self):
        spec = replace(get_scenario("fig12-move-rounds"), sweep_values=(2.0, 3.0))
        with pytest.raises(ConfigurationError, match="exactly"):
            build_sweep(spec)

    def test_invalid_point_rejected_before_compute(self):
        # avg range 1 with the spec's spread of 5 -> min_range < 0
        spec = replace(get_scenario("fig10-range"), sweep_values=(1.0,))
        with pytest.raises(ConfigurationError):
            build_sweep(spec)

    def test_paired_runs_share_seed_rows(self):
        sweep = build_sweep(get_scenario("fig11-power"), runs=3, seed=5)
        tokens = [tuple((s.entropy, tuple(s.spawn_key)) for s in row) for row in sweep.seeds]
        assert all(row == tokens[0] for row in tokens)

    def test_unpaired_runs_differ_across_points(self):
        sweep = build_sweep(get_scenario("fig10-join"), runs=2, seed=5)
        tokens = [tuple((s.entropy, tuple(s.spawn_key)) for s in row) for row in sweep.seeds]
        assert len(set(tokens)) == len(tokens)

    def test_runs_resolution_env(self):
        sweep = build_sweep(get_scenario("fig10-join"), env_runs="7")
        assert sweep.runs == 7
        with pytest.raises(ConfigurationError, match="ten"):
            build_sweep(get_scenario("fig10-join"), env_runs="ten")


class TestDeterminismAcrossProcesses:
    def test_sweep_bit_identical_for_1_2_4_processes(self):
        spec = replace(
            get_scenario("fig10-join"),
            n=10,
            strategies=("Minim", "CP"),
            sweep_values=(8.0, 10.0),
        )
        series = [run_sweep(spec, runs=2, seed=9, processes=p) for p in (1, 2, 4)]
        for other in series[1:]:
            assert other.metrics == series[0].metrics
            assert other.stderr == series[0].stderr
            assert other.x_values == series[0].x_values


class TestDeltaRounds:
    def test_round_axis_and_cumulative_deltas(self):
        spec = replace(
            get_scenario("fig12-move-rounds"),
            n=10,
            strategies=("Minim",),
            sweep_values=(3.0,),
        )
        series = run_sweep(spec, runs=2, seed=4)
        assert series.x_label == "round"
        assert series.x_values == [1.0, 2.0, 3.0]
        rec = series.series("delta_recodings", "Minim")
        assert rec == sorted(rec)  # cumulative -> non-decreasing
