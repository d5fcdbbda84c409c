"""Additional tests for clique bounds and ordering helpers."""

import numpy as np
import pytest

from repro.coloring.bounds import clique_nodes, greedy_clique, receiver_clique_bound
from repro.coloring.smallest_last import smallest_last_node_order
from repro.topology.conflicts import conflict_matrix
from repro.topology.digraph import AdHocDigraph
from repro.topology.static import StaticDigraph
from tests.conftest import make_random_graph

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


class TestReceiverCliqueBound:
    @per_kernel
    @pytest.mark.parametrize("seed", range(4))
    def test_native_in_degrees_match_adjacency(self, seed):
        graph = AdHocDigraph.restore(make_random_graph(seed, 30).snapshot())
        ids, adj = graph.adjacency()
        by_slot = dict(zip(graph.slot_ids().tolist(), graph.in_degrees().tolist()))
        assert [by_slot[v] for v in ids] == adj.sum(axis=0).tolist()
        assert receiver_clique_bound(graph) == int(adj.sum(axis=0).max()) + 1

    def test_generic_graphs_use_the_adjacency(self):
        assert receiver_clique_bound(StaticDigraph(nodes=[0, 1, 2], edges=[(1, 0), (2, 0)])) == 3
        assert receiver_clique_bound(StaticDigraph()) == 0
        assert receiver_clique_bound(AdHocDigraph()) == 0


class TestGreedyClique:
    def test_result_is_a_clique(self):
        g = make_random_graph(seed=21, n=25)
        _ids, adj = g.adjacency()
        conflicts = conflict_matrix(adj)
        clique = greedy_clique(conflicts, 0)
        for i in clique:
            for j in clique:
                if i != j:
                    assert conflicts[i, j]

    def test_isolated_seed_gives_singleton(self):
        conflicts = np.zeros((3, 3), dtype=bool)
        assert greedy_clique(conflicts, 1) == [1]


class TestCliqueNodes:
    def test_returns_pairwise_conflicting_node_ids(self):
        g = make_random_graph(seed=22, n=20)
        clique = clique_nodes(g)
        assert len(clique) >= 2
        from repro.topology.conflicts import are_conflicting

        for u in clique:
            for v in clique:
                if u != v:
                    assert are_conflicting(g, u, v)

    def test_empty_graph(self):
        g = make_random_graph(seed=0, n=0)
        assert clique_nodes(g) == []


class TestSmallestLastNodeOrder:
    def test_is_permutation_of_ids(self):
        g = make_random_graph(seed=23, n=15)
        order = smallest_last_node_order(g)
        assert sorted(order) == g.node_ids()
