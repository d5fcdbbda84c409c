"""Unit tests for the Minim strategy algorithms."""

import pytest

from repro.coloring.assignment import CodeAssignment
from repro.sim.network import AdHocNetwork
from repro.strategies.minim import (
    MinimStrategy,
    minimal_join_bound,
    minimal_move_bound,
    plan_local_matching_recode,
    plan_power_increase,
)
from repro.topology.node import NodeConfig
from repro.topology.static import StaticDigraph


def star_join(colors_of_members):
    """Node 0 joins hearing members 1..k with the given colors."""
    g = StaticDigraph(nodes=[0] + list(range(1, len(colors_of_members) + 1)))
    a = CodeAssignment()
    for i, c in enumerate(colors_of_members, start=1):
        g.add_edge(i, 0)
        a.assign(i, c)
    return g, a


class TestRecodeOnJoin:
    def test_isolated_join_gets_color_1(self):
        g = StaticDigraph(nodes=[0])
        plan = plan_local_matching_recode(g, CodeAssignment(), 0)
        assert plan.changes == {0: (None, 1)}

    def test_no_duplicates_only_n_recodes(self):
        g, a = star_join([1, 2, 3])
        plan = plan_local_matching_recode(g, a, 0)
        assert set(plan.changes) == {0}
        assert plan.changes[0] == (None, 4)  # 1..3 taken by members

    def test_duplicates_recode_k_minus_1(self):
        g, a = star_join([1, 1, 1, 2])
        plan = plan_local_matching_recode(g, a, 0)
        # class sizes: {1: 3, 2: 1} -> 2 member recodes + n.
        assert len(plan.changes) == 3 == minimal_join_bound(g, a, 0)

    def test_lowest_id_keeps_color_on_ties(self):
        g, a = star_join([5, 5])
        plan = plan_local_matching_recode(g, a, 0)
        assert 1 not in plan.changes  # lower id keeps old color
        assert 2 in plan.changes

    def test_recoded_member_reuses_low_colors(self):
        g, a = star_join([2, 2])
        plan = plan_local_matching_recode(g, a, 0)
        # Palette is {1, 2}: member 2 takes 1, n takes a fresh 3.
        assert plan.new_colors[1] == 2
        assert plan.new_colors[2] == 1
        assert plan.new_colors[0] == 3

    def test_external_constraint_respected(self):
        # Member 1 hears from external node 9 colored 1, so member 1
        # cannot take color 1 even though it is free within V1.
        g, a = star_join([2, 2])
        g.add_edge(9, 1)
        a.assign(9, 1)
        plan = plan_local_matching_recode(g, a, 0)
        new = dict(a.items()) | {u: c for u, (_o, c) in plan.changes.items()}
        assert new[1] != 1 or a[1] == 1

    def test_weight_ablation_loses_retention(self):
        # With old-color weight 1, ties no longer favour keeping colors;
        # the matching may reshuffle members freely.  Minimality of the
        # *bound* is then not guaranteed; recode count can only grow.
        g, a = star_join([1, 2, 3, 1])
        base = plan_local_matching_recode(g, a, 0)
        ablated = plan_local_matching_recode(g, a, 0, old_color_weight=1)
        assert len(ablated.changes) >= len(base.changes)

    def test_invalid_weights_rejected(self):
        g, a = star_join([1])
        with pytest.raises(ValueError):
            plan_local_matching_recode(g, a, 0, old_color_weight=0)


class TestRecodeOnPowIncrease:
    def test_no_conflict_no_change(self, small_network):
        net = small_network
        v = net.node_ids()[0]
        result = net.set_range(v, net.graph.range_of(v) * 1.01)
        if result.changes:
            # if it did recode, its old color must have been in conflict
            assert set(result.changes) == {v}

    def test_conflict_recodes_only_n_to_lowest(self):
        net = AdHocNetwork(MinimStrategy(), validate=True)
        net.graph.add_node(NodeConfig(1, 0.0, 0.0, tx_range=5.0))
        net.graph.add_node(NodeConfig(2, 20.0, 0.0, tx_range=30.0))
        net.assignment.assign(1, 1)
        net.assignment.assign(2, 1)
        result = net.set_range(1, 25.0)  # now 1 -> 2 edge; CA1 conflict
        assert result.changes == {1: (1, 2)}

    def test_plan_reports_messages(self):
        g = StaticDigraph(edges=[(1, 2), (2, 1)])
        a = CodeAssignment({1: 1, 2: 2})
        plan = plan_power_increase(g, a, 1)
        assert plan.changes == {}
        assert plan.messages == 2  # one request+reply to its out-neighbor


class TestRecodeOnMoveBounds:
    def test_noop_move_recodes_nothing(self, small_network):
        net = small_network
        v = net.node_ids()[0]
        x, y = net.graph.position_of(v)
        result = net.move(v, x, y)
        assert result.changes == {}

    def test_move_bound_includes_n_when_externally_blocked(self):
        # n (color 1) moves next to receiver r hearing external w with
        # color 1; members none.  n must recode: bound == 1.
        g = StaticDigraph(nodes=[0, 5, 9])
        a = CodeAssignment({0: 1, 5: 2, 9: 1})
        g.add_edge(0, 5)  # n transmits into 5
        g.add_edge(9, 5)  # so does external 9 (color 1): CA2 blocks 1
        assert minimal_move_bound(g, a, 0) == 1
        plan = plan_local_matching_recode(g, a, 0)
        assert len(plan.changes) == 1 and 0 in plan.changes

    def test_move_bound_zero_when_old_color_fine(self):
        g = StaticDigraph(nodes=[0, 5])
        a = CodeAssignment({0: 1, 5: 2})
        g.add_edge(0, 5)
        assert minimal_move_bound(g, a, 0) == 0
        plan = plan_local_matching_recode(g, a, 0)
        assert plan.changes == {}


class TestStrategyFacade:
    def test_leave_never_recodes(self, small_network):
        net = small_network
        before = net.assignment.copy()
        v = net.node_ids()[-1]
        result = net.leave(v)
        assert result.changes == {}
        before.unassign(v)
        assert net.assignment == before

    def test_name(self):
        assert MinimStrategy().name == "Minim"
