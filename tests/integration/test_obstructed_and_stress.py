"""Stress and non-free-space integration tests.

The paper notes (section 2) the model generalizes to non-free-space
propagation; all strategies must stay CA1/CA2-valid when obstacles
suppress in-range edges.  Also stress digraph slot reuse: long
join/leave churn with id recycling.
"""

import numpy as np
import pytest

from repro.geometry.obstacles import RectObstacle
from repro.strategies import make_strategy
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.minim import MinimStrategy
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation


class TestObstructedPropagation:
    @pytest.mark.parametrize("name", ["Minim", "CP", "BBB"])
    def test_strategies_valid_behind_walls(self, name):
        walls = (
            RectObstacle(45.0, 0.0, 55.0, 60.0),
            RectObstacle(20.0, 80.0, 80.0, 85.0),
        )
        prop = ObstructedPropagation(obstacles=walls)
        rng = np.random.default_rng(3)
        net = AdHocNetwork(make_strategy(name), propagation=prop, validate=True)
        configs = sample_configs(25, rng)
        for cfg in configs:
            net.join(cfg)
        for cfg in configs[:8]:
            net.move(cfg.node_id, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        assert net.is_valid()

    def test_wall_reduces_conflicts(self):
        rng = np.random.default_rng(4)
        configs = sample_configs(30, rng)
        free = AdHocNetwork(MinimStrategy())
        walled = AdHocNetwork(
            MinimStrategy(),
            propagation=ObstructedPropagation(
                obstacles=(RectObstacle(48.0, 0.0, 52.0, 100.0),)
            ),
        )
        for cfg in configs:
            free.join(cfg)
            walled.join(cfg)
        assert walled.graph.edge_count() < free.graph.edge_count()
        assert walled.max_color() <= free.max_color()


class TestIdRecyclingChurn:
    def test_leave_rejoin_same_ids_many_times(self):
        rng = np.random.default_rng(5)
        net = AdHocNetwork(MinimStrategy(), validate=True)
        configs = sample_configs(12, rng)
        for cfg in configs:
            net.join(cfg)
        for round_no in range(6):
            victims = configs[round_no % 3 :: 3]
            for cfg in victims:
                net.leave(cfg.node_id)
            for cfg in victims:
                net.join(
                    NodeConfig(
                        cfg.node_id,
                        float(rng.uniform(0, 100)),
                        float(rng.uniform(0, 100)),
                        tx_range=cfg.tx_range,
                    )
                )
        assert net.is_valid()
        assert sorted(net.node_ids()) == sorted(c.node_id for c in configs)

    def test_network_can_empty_and_refill(self):
        rng = np.random.default_rng(6)
        net = AdHocNetwork(MinimStrategy(), validate=True)
        configs = sample_configs(8, rng)
        for cfg in configs:
            net.join(cfg)
        for cfg in configs:
            net.leave(cfg.node_id)
        assert len(net.graph) == 0
        assert net.max_color() == 0
        for cfg in configs:
            net.join(cfg)
        assert net.is_valid()


class TestExternalConstraintEdgeCases:
    def test_join_where_fresh_colors_are_forced_beyond_constraints(self):
        # Members' colors 1..k plus an external constraint color far
        # above: max_seen follows the constraint, and the palette offers
        # room so nobody is pushed past it unnecessarily.
        from repro.coloring.assignment import CodeAssignment
        from repro.strategies.minim import plan_local_matching_recode
        from repro.topology.static import StaticDigraph

        g = StaticDigraph()
        a = CodeAssignment()
        # external node 50 colored 9 constrains member 1
        g.add_edge(50, 1)
        g.add_edge(1, 50)
        a.assign(50, 9)
        a.assign(1, 1)
        g.add_node(2)
        a.assign(2, 1)
        g.add_node(0)
        g.add_edge(1, 0)
        g.add_edge(2, 0)
        plan = plan_local_matching_recode(g, a, 0)
        assert plan.max_color_seen == 9
        # duplicated class {1, 2}: one keeps color 1; the other plus n
        # slot into the 2..9 palette instead of minting 10+.
        new = dict(a.items()) | {u: c for u, (_o, c) in plan.changes.items()}
        assert max(new[u] for u in (0, 1, 2)) <= 9
