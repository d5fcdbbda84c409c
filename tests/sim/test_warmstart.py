"""Snapshot warm starts: digraph snapshot/restore, replay forks, sweeps."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.events.base import JoinEvent
from repro.sim.network import MultiStrategyReplay
from repro.sim.random_networks import sample_configs
from repro.sim.registry import get_scenario
from repro.sim.scenarios import scenario_phases
from repro.sim.sweep import build_sweep, plan_tasks, run_sweep
from repro.strategies import make_strategy
from repro.topology.digraph import AdHocDigraph
from tests.conftest import per_value_json, series_json

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


def paired_spec(**overrides):
    spec = replace(
        get_scenario("fig11-power"),
        n=12,
        strategies=("Minim", "CP"),
        sweep_values=(2.0, 3.0, 4.0),
    )
    return replace(spec, **overrides) if overrides else spec


def _graph_state(graph: AdHocDigraph):
    ids, adj = graph.adjacency()
    cids, conflicts = graph.conflict_adjacency()
    return (ids, adj.tolist(), cids, conflicts.tolist(), graph.configs())


# ----------------------------------------------------------------------
# AdHocDigraph.snapshot() / restore()
# ----------------------------------------------------------------------
class TestDigraphSnapshot:
    @per_kernel
    def test_restore_then_replay_matches_uninterrupted_graph(self):
        rng = np.random.default_rng(11)
        cfgs = sample_configs(25, rng)
        g = AdHocDigraph()
        for c in cfgs[:15]:
            g.add_node(c)
        # full JSON round trip: snapshots must survive serialization
        snap = json.loads(json.dumps(g.snapshot()))
        h = AdHocDigraph.restore(snap)
        for graph in (g, h):
            for c in cfgs[15:]:
                graph.add_node(c)
            graph.move_node(cfgs[2].node_id, 5.0, 95.0)
            graph.set_range(cfgs[4].node_id, cfgs[4].tx_range * 3.0)
            graph.remove_node(cfgs[7].node_id)
        assert _graph_state(g) == _graph_state(h)

    def test_snapshot_preserves_version_and_mode(self):
        g = AdHocDigraph()
        for c in sample_configs(5, np.random.default_rng(0)):
            g.add_node(c)
        snap = g.snapshot()
        h = AdHocDigraph.restore(snap)
        assert snap["dense"] is False
        assert h.snapshot() == snap

    def test_empty_graph_round_trips(self):
        g = AdHocDigraph()
        h = AdHocDigraph.restore(g.snapshot())
        assert len(h) == 0
        h.add_node(sample_configs(1, np.random.default_rng(0))[0])
        assert len(h) == 1

    def test_unknown_schema_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="snapshot schema"):
            AdHocDigraph.restore({"schema": 99})


# ----------------------------------------------------------------------
# MultiStrategyReplay.fork()
# ----------------------------------------------------------------------
class TestReplayFork:
    def test_fork_then_replay_equals_cold_rebuild(self):
        # the acceptance criterion: snapshot -> restore -> replay must be
        # byte-equivalent to rebuilding from scratch
        spec = replace(paired_spec(), sweep_values=(3.0,))
        from repro.sim.scenarios import resolve_sweep

        point = resolve_sweep(spec, 3.0)
        seed = np.random.SeedSequence(42)

        phases = scenario_phases(point, np.random.default_rng(seed))
        base = MultiStrategyReplay([make_strategy(s) for s in point.strategies])
        for ev in phases.baseline:
            base.apply(ev)
        fork = base.fork()
        for round_events in phases.rounds:
            for ev in round_events:
                fork.apply(ev)

        cold_phases = scenario_phases(point, np.random.default_rng(seed))
        cold = MultiStrategyReplay([make_strategy(s) for s in point.strategies])
        for ev in cold_phases.events:
            cold.apply(ev)

        assert _graph_state(fork.graph) == _graph_state(cold.graph)
        for lane_f, lane_c in zip(fork.lanes, cold.lanes):
            assert lane_f.assignment == lane_c.assignment
            assert lane_f.metrics.snapshot() == lane_c.metrics.snapshot()
            assert lane_f.metrics.records == lane_c.metrics.records

    def test_fork_is_isolated_from_base(self):
        cfgs = sample_configs(10, np.random.default_rng(3))
        base = MultiStrategyReplay([make_strategy("Minim")])
        for c in cfgs[:8]:
            base.apply(JoinEvent(c))
        before = (_graph_state(base.graph), base.lanes[0].assignment.as_dict())
        fork = base.fork()
        for c in cfgs[8:]:
            fork.apply(JoinEvent(c))
        assert (_graph_state(base.graph), base.lanes[0].assignment.as_dict()) == before
        assert len(fork.graph) == 10 and len(base.graph) == 8

    def test_two_forks_diverge_independently(self):
        cfgs = sample_configs(12, np.random.default_rng(9))
        base = MultiStrategyReplay([make_strategy("Minim")])
        for c in cfgs[:10]:
            base.apply(JoinEvent(c))
        f1, f2 = base.fork(), base.fork()
        f1.apply(JoinEvent(cfgs[10]))
        f2.apply(JoinEvent(cfgs[11]))
        assert cfgs[10].node_id in f1.graph and cfgs[10].node_id not in f2.graph
        assert cfgs[11].node_id in f2.graph and cfgs[11].node_id not in f1.graph


# ----------------------------------------------------------------------
# Warm-start sweeps through run_sweep
# ----------------------------------------------------------------------
class TestWarmSweeps:
    def test_paired_delta_sweep_identical_with_and_without_warm_start(self):
        warm = run_sweep(paired_spec(), runs=2, seed=6)
        # without warm start: one sweep per value, each planning no warm group
        assert series_json(warm) == per_value_json(paired_spec(), runs=2, seed=6)

    def test_fig12_style_maxdisp_sweep_identical(self):
        spec = replace(
            get_scenario("fig12-move-disp"),
            n=10,
            strategies=("Minim",),
            sweep_values=(10.0, 30.0),
        )
        warm = run_sweep(spec, runs=2, seed=8)
        assert series_json(warm) == per_value_json(spec, runs=2, seed=8)

    def test_plan_groups_paired_delta_sweeps_per_run(self):
        sweep = build_sweep(paired_spec(), runs=2, seed=6)
        groups = plan_tasks(sweep)
        assert len(groups) == 2  # one warm group per run
        assert all(g.warm and len(g.points) == 3 for g in groups)
        # one value at a time: one singleton per run
        singles = plan_tasks(build_sweep(paired_spec(sweep_values=(3.0,)), runs=2, seed=6))
        assert len(singles) == 2
        assert all(not g.warm and len(g.points) == 1 for g in singles)

    def test_placement_axes_never_warm_group(self):
        # a paired delta sweep over n would diverge at the baseline;
        # planning must keep those as singleton (cold) groups
        spec = replace(
            paired_spec(),
            sweep_axis="n",
            sweep_values=(10.0, 12.0),
            power=get_scenario("fig11-power").power,
        )
        groups = plan_tasks(build_sweep(spec, runs=2, seed=1))
        assert all(not g.warm for g in groups)

    def test_partially_cached_warm_group_shrinks(self, tmp_path):
        from repro.sim.results import JsonDirBackend

        store = JsonDirBackend(tmp_path)
        spec = paired_spec()
        full = run_sweep(spec, runs=1, seed=6, store=store)
        # drop one of the three point artifacts: the run's warm group
        # must shrink to the missing member instead of recomputing all
        victim = store.list_points()[0]
        (tmp_path / "points" / f"{victim}.json").unlink()
        again = run_sweep(spec, runs=1, seed=6, store=store)
        assert "1 points computed, 2 from cache" in again.notes
        assert again.metrics == full.metrics
