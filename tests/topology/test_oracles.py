"""Self-checks of the brute-force topology oracle.

The equivalence suites take ``tests/topology/oracles.py`` as ground
truth for the conflict core, so the oracle itself is pinned here:
against hand-derived configurations (a one-way link, the CA2 hidden
receiver, an obstructed link, the closed range boundary), against a
nested-loop reading of the CA1/CA2 definitions on random networks, and
against deliberately corrupted cores, which it must reject.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.obstacles import RectObstacle
from repro.topology.conflicts import conflict_matrix
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation
from tests.topology.oracles import (
    adjacency_oracle,
    assert_matches_oracle,
    c2_from_snapshot,
    c2_oracle,
)

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


def _graph(nodes, prop=None):
    g = AdHocDigraph(prop)
    for node_id, x, y, r in nodes:
        g.add_node(NodeConfig(node_id, float(x), float(y), float(r)))
    return g


def _by_loops(adj):
    """CA2 witness counts and CA1 ∪ CA2 conflicts by direct definition."""
    n = adj.shape[0]
    c2 = np.zeros((n, n), dtype=np.int64)
    conflicts = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            c2[u, v] = sum(1 for w in range(n) if adj[u, w] and adj[v, w])
            conflicts[u, v] = bool(adj[u, v] or adj[v, u] or c2[u, v])
    return c2, conflicts


class TestAdjacencyOracle:
    @per_kernel
    def test_empty_graph(self):
        g = AdHocDigraph()
        ids, adj = adjacency_oracle(g)
        assert ids == [] and adj.shape == (0, 0)
        assert c2_oracle(adj).shape == (0, 0)
        assert_matches_oracle(g)

    def test_asymmetric_ranges_give_a_one_way_link(self):
        ids, adj = adjacency_oracle(_graph([(1, 0, 0, 20), (2, 10, 0, 5)]))
        assert ids == [1, 2]
        assert adj.tolist() == [[False, True], [False, False]]

    def test_range_boundary_is_inclusive(self):
        _, adj = adjacency_oracle(_graph([(1, 0, 0, 10), (2, 10, 0, 9.999)]))
        assert adj[0, 1] and not adj[1, 0]

    def test_obstacle_cuts_the_link(self):
        nodes = [(1, 0, 50, 40), (2, 30, 50, 40), (3, 0, 20, 40)]
        wall = ObstructedPropagation((RectObstacle(10.0, 40.0, 20.0, 60.0),))
        _, open_adj = adjacency_oracle(_graph(nodes))
        _, walled = adjacency_oracle(_graph(nodes, wall))
        assert open_adj[0, 1] and open_adj[1, 0]
        assert not walled[0, 1] and not walled[1, 0]
        assert walled[0, 2] and walled[2, 0]  # the wall does not shade this pair

    def test_rows_follow_ids_not_slots(self):
        # swap-delete leaves slot order unlike id order; the oracle and
        # the snapshot reader must both index by ascending id
        g = _graph([(9, 0, 0, 15), (5, 10, 0, 1), (7, 50, 50, 1), (2, 20, 0, 15)])
        g.remove_node(9)  # slot 0 is refilled by id 2
        assert g._ids[0] == 2
        ids, adj = adjacency_oracle(g)
        assert ids == [2, 5, 7]
        assert adj.tolist() == [
            [False, True, False],
            [False, False, False],
            [False, False, False],
        ]
        snap_ids, c2 = c2_from_snapshot(g.snapshot())
        assert snap_ids == ids and not c2.any()


class TestConflictAndC2Oracle:
    def test_ca1_one_way_link_conflicts_both_ways(self):
        _, adj = adjacency_oracle(_graph([(1, 0, 0, 20), (2, 10, 0, 5)]))
        conflicts = conflict_matrix(adj)
        assert conflicts[0, 1] and conflicts[1, 0]
        assert not c2_oracle(adj).any()

    def test_ca2_hidden_receiver(self):
        # 1 and 3 are out of each other's range but share receiver 2
        g = _graph([(1, 0, 0, 12), (2, 10, 0, 1), (3, 20, 0, 12)])
        _, adj = adjacency_oracle(g)
        assert not adj[0, 2] and not adj[2, 0]
        c2 = c2_oracle(adj)
        assert c2[0, 2] == c2[2, 0] == 1
        assert conflict_matrix(adj)[0, 2]
        assert_matches_oracle(g)

    def test_c2_counts_every_common_receiver(self):
        g = _graph([(1, 0, 0, 12), (2, 10, 0, 1), (3, 10, 2, 1), (4, 20, 0, 12)])
        c2 = c2_oracle(adjacency_oracle(g)[1])
        assert c2[0, 3] == c2[3, 0] == 2
        assert c2[1, 2] == 0  # the receivers reach nobody

    @per_kernel
    @pytest.mark.parametrize("seed", range(6))
    def test_random_networks_match_the_definitions(self, seed):
        rng = np.random.default_rng(seed)
        nodes = [
            (i, rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(5, 40))
            for i in range(1, 26)
        ]
        g = _graph(nodes)
        _, adj = adjacency_oracle(g)
        c2, conflicts = _by_loops(adj)
        np.testing.assert_array_equal(c2_oracle(adj), c2)
        np.testing.assert_array_equal(conflict_matrix(adj), conflicts)
        assert (c2 == c2.T).all() and not c2.diagonal().any()
        assert_matches_oracle(g)

    @pytest.mark.parametrize("seed", range(2))
    def test_obstructed_networks_match_the_definitions(self, seed):
        rng = np.random.default_rng(seed + 40)
        walls = ObstructedPropagation(
            (RectObstacle(25.0, 10.0, 35.0, 70.0), RectObstacle(55.0, 40.0, 90.0, 50.0))
        )
        nodes = [
            (i, rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(10, 50))
            for i in range(1, 26)
        ]
        g = _graph(nodes, walls)
        _, adj = adjacency_oracle(g)
        _, open_adj = adjacency_oracle(_graph(nodes))
        assert (open_adj & ~adj).any()  # the walls block some links
        assert not (adj & ~open_adj).any()  # and never add one
        c2, conflicts = _by_loops(adj)
        np.testing.assert_array_equal(c2_oracle(adj), c2)
        np.testing.assert_array_equal(conflict_matrix(adj), conflicts)
        assert_matches_oracle(g)


class TestOracleCatchesCorruption:
    @staticmethod
    def _network():
        return _graph([(1, 0, 0, 12), (2, 10, 0, 1), (3, 20, 0, 12), (4, 10, 10, 15)])

    @per_kernel
    def test_wrong_c2_counter_is_caught(self):
        g = self._network()
        assert_matches_oracle(g)
        s, t = g._index[1], g._index[3]
        g._core.c2[s, t] += 1
        g._core.c2[t, s] += 1
        with pytest.raises(AssertionError):
            assert_matches_oracle(g)

    @per_kernel
    def test_stale_links_after_an_unannounced_move_are_caught(self):
        g = self._network()
        assert_matches_oracle(g)
        g._pos[g._index[3]] = (500.0, 500.0)  # bypasses move_node
        with pytest.raises(AssertionError):
            assert_matches_oracle(g)
