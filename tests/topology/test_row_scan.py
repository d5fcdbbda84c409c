"""The array core's neighbour search: one distance pass over every live slot.

``ArrayCore.refresh`` recomputes a slot's out- and in-edges from a
single pass over all live slots, and ``refresh_out`` its out-edges after
a range change.  These tests pin the paper's closed-disc edge rule
``d(u, v) <= r_u`` at its boundary, across placements no window would
bound, and through the slot lifecycle (swap-delete churn, capacity
growth, copy-on-write forks), under both edge kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.topology.cores.array as array_mod
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from tests.topology.oracles import assert_matches_oracle

# run every test once per edge kernel (see tests/conftest.py::use_kernel)
pytestmark = pytest.mark.usefixtures("each_kernel")


def cfg(i, x, y, r):
    return NodeConfig(i, float(x), float(y), tx_range=float(r))


def _graph(*cfgs):
    g = AdHocDigraph()
    for c in cfgs:
        g.add_node(c)
    return g


class TestClosedDisc:
    def test_target_exactly_at_range_is_covered(self):
        # a 3-4-5 triangle: the squared distance is exactly 25
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 3, 4, 1.0))
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)
        assert_matches_oracle(g)

    def test_target_one_ulp_beyond_range_is_not_covered(self):
        g = _graph(cfg(1, 0, 0, np.nextafter(5.0, 0.0)), cfg(2, 3, 4, 1.0))
        assert not g.has_edge(1, 2)
        assert_matches_oracle(g)

    def test_joining_node_gains_in_edges_at_exact_range(self):
        # the joiner's in-column comes from the other slots' ranges
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 6, 8, 10.0))
        g.add_node(cfg(3, 3, 4, 0.5))
        assert g.in_neighbors(3) == [1, 2]
        assert g.out_neighbors(3) == []
        assert_matches_oracle(g)

    def test_coincident_nodes_cover_each_other(self):
        g = _graph(cfg(1, 7, 7, 0.25), cfg(2, 7, 7, 0.5))
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert_matches_oracle(g)

    def test_negative_coordinates(self):
        g = _graph(cfg(1, -30, -40, 50.0), cfg(2, 0, 0, 49.0), cfg(3, -3, -4, 5.0))
        assert g.out_neighbors(1) == [2, 3]
        assert g.out_neighbors(2) == [3]
        assert g.out_neighbors(3) == [2]
        assert_matches_oracle(g)

    def test_transmitters_at_exact_range_share_a_witness(self):
        # both reach the receiver at exactly 5 and are 10 apart: CA2 only
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 6, 8, 5.0), cfg(3, 3, 4, 0.5))
        assert not g.has_edge(1, 2) and not g.has_edge(2, 1)
        assert g.in_neighbors(3) == [1, 2]
        assert 2 in g.conflict_neighbor_ids(1)
        g.remove_node(3)
        assert 2 not in g.conflict_neighbor_ids(1)
        assert_matches_oracle(g)

    def test_far_flung_nodes_are_all_scanned(self):
        # no cell-sized window bounds the query: every slot is tested
        corners = [(-5000, -5000), (5000, -5000), (-5000, 5000), (5000, 5000), (0, 0)]
        g = _graph(*(cfg(i, x, y, 15000.0) for i, (x, y) in enumerate(corners)))
        assert g.edge_count() == len(corners) * (len(corners) - 1)
        g.add_node(cfg(99, 4999, 4999, 2.0))
        assert g.out_neighbors(99) == [3]
        assert g.in_degree(99) == len(corners)
        assert_matches_oracle(g)


class TestRangeAndMove:
    def test_range_raise_onto_the_boundary_adds_the_edge(self):
        g = _graph(cfg(1, 0, 0, 4.9), cfg(2, 3, 4, 1.0))
        assert not g.has_edge(1, 2)
        g.set_range(1, 5.0)
        assert g.has_edge(1, 2)
        assert_matches_oracle(g)

    def test_range_drop_below_the_boundary_removes_the_edge(self):
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 3, 4, 1.0), cfg(3, 0, 4, 1.0))
        g.set_range(1, np.nextafter(5.0, 0.0))
        assert g.out_neighbors(1) == [3]
        assert_matches_oracle(g)

    def test_move_onto_and_off_the_boundary(self):
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 10, 10, 5.0))
        assert g.edge_count() == 0
        g.move_node(2, 3, 4)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert_matches_oracle(g)
        g.move_node(2, 3, np.nextafter(4.0, 5.0))
        assert g.edge_count() == 0
        assert_matches_oracle(g)

    def test_range_sweep_adds_targets_exactly_at_their_distance(self):
        g = _graph(cfg(0, 0, 0, 0.5), *(cfg(k, k, 0, 0.5) for k in range(1, 6)))
        for k in range(1, 6):
            g.set_range(0, np.nextafter(float(k), 0.0))
            assert g.out_neighbors(0) == list(range(1, k))
            g.set_range(0, float(k))
            assert g.out_neighbors(0) == list(range(1, k + 1))
        assert_matches_oracle(g)

    def test_range_change_leaves_in_edges_alone(self):
        g = _graph(cfg(1, 0, 0, 10.0), cfg(2, 3, 4, 10.0))
        g.set_range(2, 0.1)
        assert g.has_edge(1, 2) and not g.has_edge(2, 1)
        assert_matches_oracle(g)

    def test_move_away_and_back_restores_every_edge(self):
        g = _graph(*(cfg(i, 4 * (i % 3), 4 * (i // 3), 6.0) for i in range(9)))
        _, adj = g.adjacency()
        _, conflicts = g.conflict_adjacency()
        g.move_node(4, 500, 500)
        assert g.out_degree(4) == g.in_degree(4) == 0
        assert_matches_oracle(g)
        g.move_node(4, 4, 4)
        np.testing.assert_array_equal(g.adjacency()[1], adj)
        np.testing.assert_array_equal(g.conflict_adjacency()[1], conflicts)
        assert_matches_oracle(g)


class TestLifecycle:
    @pytest.mark.parametrize("seed", range(4))
    def test_swap_delete_churn_matches_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = AdHocDigraph()
        next_id = 0
        for _ in range(60):
            live = g.node_ids()
            op = rng.integers(4) if len(live) > 3 else 0
            if op == 0:
                g.add_node(cfg(next_id, *rng.uniform(0, 60, 2), rng.uniform(5, 25)))
                next_id += 1
            elif op == 1:
                g.remove_node(live[rng.integers(len(live))])
            elif op == 2:
                g.move_node(live[rng.integers(len(live))], *rng.uniform(0, 60, 2))
            else:
                g.set_range(live[rng.integers(len(live))], rng.uniform(5, 25))
            assert_matches_oracle(g)

    @pytest.mark.parametrize("n", [15, 16, 17, 32, 33])
    def test_growth_across_capacity_boundaries(self, n):
        rng = np.random.default_rng(n)
        cfgs = [cfg(i, *rng.uniform(0, 40, 2), rng.uniform(8, 20)) for i in range(n + 1)]
        g = _graph(*cfgs[:n])
        assert_matches_oracle(g)
        # a restored graph is sized to its population, then grows again
        restored = AdHocDigraph.restore(g.snapshot())
        g.add_node(cfgs[n])
        restored.add_node(cfgs[n])
        assert restored.snapshot() == g.snapshot()
        assert_matches_oracle(restored)

    def test_removing_a_middle_slot_keeps_the_renamed_slot_exact(self):
        g = _graph(*(cfg(i, 5 * i, 0, 6.0) for i in range(5)))
        g.remove_node(2)
        assert g.slot_of(4) == 2
        assert g.in_neighbors(4) == [3]
        assert g.out_neighbors(1) == [0]
        g.move_node(4, 10, 0)
        assert g.out_neighbors(4) == [1, 3]
        assert_matches_oracle(g)

    def test_drain_to_empty_and_rejoin(self):
        cfgs = [cfg(i, 3 * i, 2 * i, 8.0) for i in range(10)]
        g = _graph(*cfgs)
        for c in cfgs[::-2] + cfgs[-2::-2]:
            g.remove_node(c.node_id)
            assert_matches_oracle(g)
        assert len(g) == 0 and g.edge_count() == 0
        for c in cfgs:
            g.add_node(c)
        np.testing.assert_array_equal(g.adjacency()[1], _graph(*cfgs).adjacency()[1])
        assert_matches_oracle(g)

    def test_shrink_then_regrow_past_capacity(self):
        # removals keep the grown blocks; the rejoins reuse their rows
        rng = np.random.default_rng(7)
        cfgs = [cfg(i, *rng.uniform(0, 50, 2), rng.uniform(6, 18)) for i in range(40)]
        g = _graph(*cfgs)
        for c in cfgs[5:35]:
            g.remove_node(c.node_id)
        assert_matches_oracle(g)
        for c in cfgs[5:35]:
            g.add_node(c)
        assert_matches_oracle(g)

    def test_restored_graph_refreshes_like_the_original(self):
        rng = np.random.default_rng(3)
        g = _graph(*(cfg(i, *rng.uniform(0, 40, 2), rng.uniform(8, 20)) for i in range(12)))
        restored = AdHocDigraph.restore(g.snapshot())
        for h in (g, restored):
            h.move_node(3, 20, 20)
            h.set_range(5, 30.0)
            h.remove_node(0)
            h.add_node(cfg(40, 1, 1, 12.0))
        assert restored.snapshot() == g.snapshot()
        assert_matches_oracle(restored)

    def test_copy_refresh_leaves_the_original_untouched(self):
        g = _graph(*(cfg(i, 5 * i, 0, 6.0) for i in range(8)))
        before = g.snapshot()
        c = g.copy()
        c.move_node(0, 35, 0)
        c.set_range(7, 50.0)
        assert g.snapshot() == before
        assert_matches_oracle(c)

    def test_fork_of_a_fork_writes_independently(self):
        g = _graph(*(cfg(i, 5 * i, 0, 6.0) for i in range(8)))
        before = g.snapshot()
        f1 = g.fork()
        f2 = f1.fork()
        f2.move_node(0, 100, 0)
        f1.set_range(7, 40.0)
        assert g.snapshot() == before
        assert f1.out_degree(0) == 1 and f2.out_degree(0) == 0
        for h in (g, f1, f2):
            assert_matches_oracle(h)

    def test_fork_refresh_leaves_the_sibling_untouched(self):
        g = _graph(*(cfg(i, 5 * i, 0, 6.0) for i in range(8)))
        before = g.snapshot()
        f = g.fork()
        f.move_node(3, 100, 100)
        f.set_range(0, 40.0)
        f.add_node(cfg(50, 2, 0, 3.0))
        assert g.snapshot() == before
        assert_matches_oracle(g)
        assert_matches_oracle(f)

    def test_kernel_choice_reaches_the_model_dispatch(self, each_kernel, monkeypatch):
        calls = []
        real = array_mod.pairwise_masks

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(array_mod, "pairwise_masks", counted)
        g = _graph(cfg(1, 0, 0, 5.0), cfg(2, 3, 4, 1.0))
        g.move_node(2, 4, 3)
        assert len(calls) == (3 if each_kernel == "model" else 0)
        assert g.has_edge(1, 2) and not g.has_edge(2, 1)
