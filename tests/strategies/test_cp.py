"""Tests for the CP baseline strategy."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.coloring.assignment import CodeAssignment
from repro.sim.network import AdHocNetwork
from repro.strategies.cp import (
    CPStrategy,
    plan_cp_join,
    reselect_colors,
)
from repro.strategies.cp.join import duplicated_members
from repro.strategies.minim import minimal_join_bound
from repro.sim.random_networks import sample_configs
from repro.topology.node import NodeConfig
from repro.topology.static import StaticDigraph


class TestDuplicatedMembers:
    def test_no_duplicates(self):
        a = CodeAssignment({1: 1, 2: 2, 3: 3})
        assert duplicated_members(a, frozenset({1, 2, 3})) == set()

    def test_all_pairs_detected(self):
        a = CodeAssignment({1: 1, 2: 1, 3: 2, 4: 2, 5: 3})
        assert duplicated_members(a, frozenset({1, 2, 3, 4, 5})) == {1, 2, 3, 4}


class TestReselectColors:
    def test_descending_order_default(self):
        # 1 and 2 conflict (common receiver 9); both reselect.
        g = StaticDigraph(edges=[(1, 9), (2, 9)])
        a = CodeAssignment({1: 5, 2: 5, 9: 2})
        out = reselect_colors(g, a, {1, 2})
        # Highest first: 2 picks 1 (9's color 2 taken... 9 conflicts via
        # CA1), then 1 avoids 2's pick.
        assert out[2] == 1
        assert out[1] == 3  # 1's conflicts: 9 (color 2), 2 (now 1)

    def test_lowest_first_option(self):
        g = StaticDigraph(edges=[(1, 9), (2, 9)])
        a = CodeAssignment({1: 5, 2: 5, 9: 2})
        out = reselect_colors(g, a, {1, 2}, highest_first=False)
        assert out[1] == 1 and out[2] == 3

    def test_uncolored_peers_not_constraining(self):
        g = StaticDigraph(edges=[(1, 9), (2, 9)])
        a = CodeAssignment({1: 1, 2: 1, 9: 3})
        out = reselect_colors(g, a, {1, 2})
        # 2 goes first and can take 1 (peer 1 is uncolored then).
        assert out[2] == 1

    def test_vicinity_variant_superset_constraints(self):
        # Node 7 is 2 hops from 1 but NOT a conflict neighbor; the
        # vicinity variant avoids its color anyway.
        g = StaticDigraph(edges=[(1, 9), (9, 7)])
        a = CodeAssignment({1: 1, 9: 2, 7: 3})
        conflict = reselect_colors(g, a, {1})
        vicinity = reselect_colors(g, a, {1}, vicinity_colors=True)
        assert conflict[1] == 1  # only 9 constrains (color 2)
        assert vicinity[1] == 1  # 2 and 3 taken, 1 free in both


class TestCPJoin:
    def test_recodes_at_least_minim_bound(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            configs = sample_configs(15, rng)
            net = AdHocNetwork(CPStrategy(), validate=True)
            for cfg in configs[:-1]:
                net.join(cfg)
            last = configs[-1]
            net.graph.add_node(last)
            bound = minimal_join_bound(net.graph, net.assignment, last.node_id)
            net.graph.remove_node(last.node_id)
            result = net.join(last)
            assert result.recode_count >= bound

    def test_join_validity_over_sequence(self):
        rng = np.random.default_rng(7)
        net = AdHocNetwork(CPStrategy(), validate=True)
        for cfg in sample_configs(25, rng):
            net.join(cfg)
        assert net.is_valid()

    def test_reselect_landing_on_old_color_not_counted(self):
        # Members 1, 2 share color; highest (2) re-picks first and gets
        # color 1 (lowest), member 1 then picks 2 == its old color in a
        # world where nothing else constrains... construct: colors 2, 2.
        g = StaticDigraph(nodes=[0, 1, 2])
        for i in (1, 2):
            g.add_edge(i, 0)
        a = CodeAssignment({1: 2, 2: 2})
        plan = plan_cp_join(g, a, 0)
        # 2 picks 1; 1 picks 2 (unchanged, not a recode); 0 picks 3.
        assert plan.new_colors[1] == 2
        assert 1 not in plan.changes
        assert plan.changes[2] == (2, 1)
        assert plan.changes[0] == (None, 3)


class TestCPPowerAndMove:
    def test_power_increase_recodes_same_colored_new_conflicts(self):
        from repro.topology.node import NodeConfig

        net = AdHocNetwork(CPStrategy(), validate=True)
        net.graph.add_node(NodeConfig(1, 0.0, 0.0, tx_range=5.0))
        net.graph.add_node(NodeConfig(2, 20.0, 0.0, tx_range=30.0))
        net.assignment.assign(1, 1)
        net.assignment.assign(2, 1)
        result = net.set_range(1, 25.0)
        # Both 1 and 2 re-select: 2 (highest) keeps 1, 1 must move.
        assert set(result.changes) == {1}
        assert net.is_valid()

    def test_move_always_reselects_mover(self, small_network):
        rng = np.random.default_rng(1)
        net = AdHocNetwork(CPStrategy(), validate=True)
        for cfg in sample_configs(12, rng):
            net.join(cfg)
        v = net.node_ids()[0]
        result = net.move(v, 50.0, 50.0)
        assert net.is_valid()
        # mover either keeps its color (not counted) or is in changes

    def test_leave_no_recode(self):
        rng = np.random.default_rng(2)
        net = AdHocNetwork(CPStrategy(), validate=True)
        for cfg in sample_configs(10, rng):
            net.join(cfg)
        assert net.leave(net.node_ids()[0]).changes == {}


class TestVicinityVariantSafety:
    @given(st.integers(0, 300))
    def test_vicinity_cp_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        net = AdHocNetwork(CPStrategy(vicinity_colors=True), validate=True)
        for cfg in sample_configs(12, rng):
            net.join(cfg)
        assert net.is_valid()
