"""Tests for the 1n/2n/3n/4n partition and k-hop sets."""

import pytest

from repro.topology.neighborhoods import join_partition, k_hop_neighbors, vicinity
from repro.topology.static import StaticDigraph
from tests.conftest import make_random_graph

# run every test once per edge kernel (see tests/conftest.py::use_kernel)
pytestmark = pytest.mark.usefixtures("each_kernel")


@pytest.fixture
def star():
    """n=0 with in-only {1}, bidirectional {2}, out-only {3}, none {4}."""
    return StaticDigraph(
        nodes=[0, 1, 2, 3, 4],
        edges=[(1, 0), (2, 0), (0, 2), (0, 3)],
    )


class TestJoinPartition:
    def test_fig2_sets(self, star):
        p = join_partition(star, 0)
        assert p.one == {1}
        assert p.two == {2}
        assert p.three == {3}
        assert p.four == {4}

    def test_v1(self, star):
        p = join_partition(star, 0)
        assert p.v1 == {0, 1, 2}
        assert p.in_neighbors == {1, 2}
        assert p.out_neighbors == {2, 3}

    def test_partition_is_exhaustive_and_disjoint(self):
        g = make_random_graph(seed=11, n=25)
        for n in g.node_ids()[:5]:
            p = join_partition(g, n)
            sets = [p.one, p.two, p.three, p.four]
            union = set().union(*sets)
            assert union == set(g.node_ids()) - {n}
            assert sum(len(s) for s in sets) == len(union)

    def test_partition_semantics_match_edges(self):
        g = make_random_graph(seed=12, n=20)
        n = g.node_ids()[0]
        p = join_partition(g, n)
        for u in p.one:
            assert g.has_edge(u, n) and not g.has_edge(n, u)
        for u in p.two:
            assert g.has_edge(u, n) and g.has_edge(n, u)
        for u in p.three:
            assert g.has_edge(n, u) and not g.has_edge(u, n)
        for u in p.four:
            assert not g.has_edge(n, u) and not g.has_edge(u, n)


class TestKHop:
    def test_line(self, line_graph):
        assert k_hop_neighbors(line_graph, 1, 1) == {2}
        assert k_hop_neighbors(line_graph, 1, 2) == {2, 3}
        assert k_hop_neighbors(line_graph, 3, 2) == {1, 2, 4, 5}

    def test_zero_hops_empty(self, line_graph):
        assert k_hop_neighbors(line_graph, 1, 0) == set()

    def test_negative_rejected(self, line_graph):
        with pytest.raises(ValueError):
            k_hop_neighbors(line_graph, 1, -1)

    def test_vicinity_includes_self(self, line_graph):
        assert vicinity(line_graph, 1, 1) == {1, 2}

    def test_conflict_neighbors_within_two_hops(self):
        # The CP safety argument: conflicts are always within 2 hops.
        g = make_random_graph(seed=13, n=25)
        for u in g.node_ids():
            two_hop = k_hop_neighbors(g, u, 2)
            assert g.conflict_neighbor_ids(u) <= two_hop

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bounded_search_matches_full_bfs(self, k):
        # The hop-bounded search must return what filtering a full BFS
        # by d <= k returns, on the digraph and on an explicit-edge
        # copy of the same digraph.
        g = make_random_graph(seed=14, n=40, min_range=12.5, max_range=22.5)
        static = StaticDigraph(nodes=g.node_ids(), edges=g.edges())
        for graph in (g, static):
            for u in graph.node_ids():
                full = graph.undirected_hop_distances(u)
                assert k_hop_neighbors(graph, u, k) == {v for v, d in full.items() if 0 < d <= k}
