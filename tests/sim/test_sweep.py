"""The unified sweep orchestrator (every experiment's single entry point)."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.sim.registry import get_scenario
from repro.sim.sweep import build_sweep, plan_tasks, resolve_runs, run_sweep
from tests.conftest import shrunk_scenario

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


class TestResolveRuns:
    def test_explicit_wins(self):
        assert resolve_runs(7, 5, "3") == 7

    def test_env_beats_default(self):
        assert resolve_runs(None, 5, "3") == 3

    def test_default_fallback(self):
        assert resolve_runs(None, 5, None) == 5

    def test_rejects_nonpositive_explicit(self):
        with pytest.raises(ValueError):
            resolve_runs(0, 5, None)

    def test_nonpositive_env_raises_configuration_error(self):
        # every env-derived failure is environment misconfiguration, so
        # "0" must match the non-integer case, not surface as ValueError
        with pytest.raises(ConfigurationError, match=">= 1"):
            resolve_runs(None, 5, "0")
        with pytest.raises(ConfigurationError, match="-2"):
            resolve_runs(None, 5, "-2")

    def test_non_numeric_env_raises_configuration_error(self):
        # e.g. REPRO_RUNS=ten must not surface as a bare ValueError
        with pytest.raises(ConfigurationError, match="'ten'"):
            resolve_runs(None, 5, "ten")
        with pytest.raises(ConfigurationError, match="REPRO_RUNS"):
            resolve_runs(None, 5, "3.5")


def _small(name: str, sweep_values: tuple[float, ...], n: int = 10):
    return replace(get_scenario(name), n=n, strategies=("Minim",), sweep_values=sweep_values)


class TestSeedPrefixStability:
    def test_extending_runs_preserves_existing_seeds(self):
        # raising `runs` on a store reuses every computed point because
        # run r's seed never depends on how many runs were planned
        for spec in (_small("fig10-join", (6.0, 8.0, 10.0)), _small("fig11-power", (2.0, 4.0))):
            small = build_sweep(spec, runs=2, seed=9)
            large = build_sweep(spec, runs=7, seed=9)
            for i in range(len(small.points)):
                for r in range(2):
                    a, b = small.seeds[i][r], large.seeds[i][r]
                    assert (a.entropy, a.spawn_key) == (b.entropy, b.spawn_key)

    @pytest.mark.parametrize("name", PAPER_SCENARIOS + EXTENDED_SCENARIOS)
    def test_growing_runs_keeps_every_point_key(self, name):
        # a store files run r of point i under its point key; growing the
        # budget must leave those keys where they were and key every new
        # run apart from all of them
        spec = shrunk_scenario(name)

        def keys(runs: int) -> dict:
            groups = plan_tasks(build_sweep(spec, runs=runs, seed=9))
            return {ix: key for g in groups for ix, key in zip(g.indices, g.keys)}

        small, large = keys(2), keys(5)
        assert len(large) == 5 * len(spec.sweep_values)
        assert {ix: large[ix] for ix in small} == small
        assert len(set(large.values())) == len(large)


class TestStderrGuard:
    def test_single_run_sweep_stores_zero_stderr_not_nan(self):
        series = run_sweep(_small("fig10-join", (6.0, 8.0, 10.0)), runs=1, seed=3)
        for per_strategy in series.stderr.values():
            for values in per_strategy.values():
                assert values == [0.0] * len(values)

    @pytest.mark.parametrize("name", PAPER_SCENARIOS + EXTENDED_SCENARIOS)
    def test_single_run_of_every_scenario_is_finite(self, name):
        # one run per point, whatever the measure: finite means, stderr 0.0
        series = run_sweep(shrunk_scenario(name), runs=1, seed=3)
        assert series.runs == 1
        for metric, per_strategy in series.stderr.items():
            for strategy, values in per_strategy.items():
                assert values == [0.0] * len(values)
                assert all(math.isfinite(v) for v in series.metrics[metric][strategy])


class TestOneRunBudget:
    """Every sweep runs exactly ``runs`` runs per point; nothing adapts it."""

    def test_precision_argument_is_gone(self):
        with pytest.raises(TypeError, match="precision"):
            run_sweep(_small("fig10-join", (6.0,)), runs=1, seed=3, precision=0.2)

    def test_control_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro.sim.control  # noqa: F401


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
