"""Scenario engine: registry, placement models, traces, and sweeps by scenario."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.sim.registry import available_scenarios, get_scenario, register_scenario
from repro.sim.scenarios import (
    BUILTIN_SCENARIOS,
    ChurnSpec,
    MobilitySpec,
    PlacementSpec,
    PowerSpec,
    ScenarioSpec,
    place_nodes,
    resolve_sweep,
    scenario_trace,
)
from repro.sim.sweep import run_sweep

NEW_SCENARIOS = (
    "poisson-cluster",
    "random-waypoint",
    "uniform-churn",
    "hotspot-churn",
    "dense-urban",
    "sparse-long-range",
)


def _tiny(spec: ScenarioSpec) -> ScenarioSpec:
    """A shrunk copy of ``spec`` for fast smoke runs."""
    small = replace(spec, n=min(spec.n, 16), strategies=("Minim",))
    return replace(small, sweep_values=(spec.sweep_values[0],))


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_scenarios()
        assert set(NEW_SCENARIOS) <= set(names)
        assert "fig10-join" in names
        assert len(BUILTIN_SCENARIOS) == len(names)

    def test_at_least_five_new_scenarios(self):
        assert len(NEW_SCENARIOS) >= 5

    def test_get_scenario_roundtrip(self):
        spec = get_scenario("dense-urban")
        assert spec.name == "dense-urban"
        assert spec.min_range == 8.0 and spec.max_range == 12.0

    def test_unknown_scenario_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="dense-urban"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario(get_scenario("fig10-join"))


class TestSpecValidation:
    def test_bad_placement_kind(self):
        with pytest.raises(ConfigurationError):
            PlacementSpec(kind="pentagonal")

    def test_bad_hotspot_fraction(self):
        with pytest.raises(ConfigurationError):
            PlacementSpec(kind="hotspot", hotspot_fraction=1.5)

    def test_bad_cluster_params(self):
        with pytest.raises(ConfigurationError):
            PlacementSpec(kind="poisson-cluster", cluster_sigma=0.0)

    def test_bad_mobility_kind(self):
        with pytest.raises(ConfigurationError):
            MobilitySpec(kind="teleport")

    def test_bad_churn_fraction(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(kind="uniform", fraction=1.5)

    def test_bad_power_kind(self):
        with pytest.raises(ConfigurationError):
            PowerSpec(kind="lower")

    def test_bad_sweep_axis(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", description="d", sweep_axis="zigzag", sweep_values=(1,))

    def test_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", description="d", min_range=30.0, max_range=20.0)


class TestPlacement:
    def test_uniform_matches_paper_generator(self):
        spec = get_scenario("fig10-join")
        configs = place_nodes(spec, np.random.default_rng(0))
        assert len(configs) == spec.n
        assert [c.node_id for c in configs] == list(range(1, spec.n + 1))

    def test_poisson_cluster_in_area(self):
        spec = replace(get_scenario("poisson-cluster"), n=50)
        configs = place_nodes(spec, np.random.default_rng(1))
        assert len(configs) == 50
        for c in configs:
            assert 0.0 <= c.x <= 100.0 and 0.0 <= c.y <= 100.0
            assert spec.min_range <= c.tx_range <= spec.max_range

    def test_poisson_cluster_is_clustered(self):
        # Mean nearest-neighbor distance must drop well below uniform's.
        n = 80
        uni = replace(get_scenario("fig10-join"), n=n)
        clu = replace(
            get_scenario("poisson-cluster"),
            n=n,
            placement=PlacementSpec(kind="poisson-cluster", cluster_rate=4.0, cluster_sigma=5.0),
        )

        def mean_nn(configs):
            pts = np.asarray([(c.x, c.y) for c in configs])
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            return d.min(axis=1).mean()

        rng = np.random.default_rng(7)
        assert mean_nn(place_nodes(clu, rng)) < 0.6 * mean_nn(place_nodes(uni, rng))

    def test_hotspot_concentrates_nodes(self):
        spec = ScenarioSpec(
            name="hs-test",
            description="d",
            n=100,
            placement=PlacementSpec(kind="hotspot", hotspot_fraction=0.7, hotspot_radius=15.0),
            sweep_values=(100,),
        )
        configs = place_nodes(spec, np.random.default_rng(2))
        inside = sum(1 for c in configs if (c.x - 50) ** 2 + (c.y - 50) ** 2 <= 15.0**2)
        assert inside >= 60  # ~70 expected, allow sampling slack


class TestTraces:
    def test_trace_is_deterministic(self):
        spec = resolve_sweep(get_scenario("hotspot-churn"), 0.2)
        _, a = scenario_trace(spec, np.random.default_rng(5))
        _, b = scenario_trace(spec, np.random.default_rng(5))
        assert a == b

    def test_churn_trace_shape(self):
        spec = resolve_sweep(replace(get_scenario("uniform-churn"), n=20), 0.2)
        _, events = scenario_trace(spec, np.random.default_rng(3))
        joins = [e for e in events if isinstance(e, JoinEvent)]
        leaves = [e for e in events if isinstance(e, LeaveEvent)]
        # 20 initial joins + 2 cycles x 4 leavers rejoining
        assert len(leaves) == 8
        assert len(joins) == 20 + 8

    def test_hotspot_churn_rejoins_inside_disc(self):
        spec = resolve_sweep(replace(get_scenario("hotspot-churn"), n=30), 0.3)
        _, events = scenario_trace(spec, np.random.default_rng(4))
        rejoins = [e for e in events if isinstance(e, JoinEvent)][30:]
        assert rejoins
        r = spec.churn.hotspot_radius
        for e in rejoins:
            assert (e.config.x - 50) ** 2 + (e.config.y - 50) ** 2 <= r * r + 1e-9

    def test_waypoint_trace_emits_moves(self):
        spec = resolve_sweep(replace(get_scenario("random-waypoint"), n=10), 3)
        _, events = scenario_trace(spec, np.random.default_rng(6))
        moves = [e for e in events if isinstance(e, MoveEvent)]
        assert len(moves) == 10 * 3

    def test_power_schedule_emits_changes(self):
        spec = ScenarioSpec(
            name="pw-test",
            description="d",
            n=12,
            power=PowerSpec(kind="raise", raisefactor=3.0, fraction=0.5),
            sweep_axis="raisefactor",
            sweep_values=(3.0,),
        )
        _, events = scenario_trace(resolve_sweep(spec, 3.0), np.random.default_rng(8))
        raises = [e for e in events if isinstance(e, PowerChangeEvent)]
        assert len(raises) == 6

    def test_sweep_axes_resolve(self):
        base = get_scenario("fig10-join")
        assert resolve_sweep(base, 80).n == 80
        mob = get_scenario("random-waypoint")
        assert resolve_sweep(mob, 7).mobility.steps == 7
        churn = get_scenario("uniform-churn")
        assert resolve_sweep(churn, 0.3).churn.fraction == 0.3
        rng_spec = replace(base, sweep_axis="avg_range", min_range=20.0, max_range=25.0)
        resolved = resolve_sweep(rng_spec, 40.0)
        assert (resolved.min_range, resolved.max_range) == (37.5, 42.5)


class TestRunScenario:
    @pytest.mark.parametrize("name", NEW_SCENARIOS)
    def test_each_new_scenario_smokes(self, name):
        series = run_sweep(_tiny(get_scenario(name)), runs=1, seed=11)
        assert series.experiment == f"scenario-{name}"
        assert set(series.metrics) == {"max_color", "recodings", "messages"}
        assert series.value_at("max_color", "Minim", series.x_values[0]) >= 1.0

    def test_strategy_override(self):
        spec = _tiny(get_scenario("sparse-long-range"))
        series = run_sweep(spec, runs=1, strategies=("Minim", "GreedySeq"))
        assert series.strategies() == ["Minim", "GreedySeq"]

    def test_run_by_name(self):
        series = run_sweep("sparse-long-range", runs=1, strategies=("Minim",))
        assert series.experiment == "scenario-sparse-long-range"
        assert len(series.x_values) == 3

    def test_empty_sweep_rejected(self):
        spec = replace(get_scenario("fig10-join"), sweep_values=())
        with pytest.raises(ConfigurationError):
            run_sweep(spec, runs=1)
