"""Tests for the CA1 ∪ CA2 conflict graph."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.conflicts import (
    are_conflicting,
    conflict_degree,
    conflict_matrix,
    conflict_neighbors,
)
from repro.topology.static import StaticDigraph
from tests.conftest import make_random_graph

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


def brute_force_conflicts(adj: np.ndarray) -> np.ndarray:
    """CA1/CA2 by direct definition, nested loops."""
    n = adj.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if adj[i, j] or adj[j, i]:
                out[i, j] = True  # CA1
                continue
            for k in range(n):
                if adj[i, k] and adj[j, k]:
                    out[i, j] = True  # CA2
                    break
    return out


class TestConflictMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            conflict_matrix(np.zeros((2, 3), dtype=bool))

    def test_empty(self):
        assert conflict_matrix(np.zeros((0, 0), dtype=bool)).shape == (0, 0)

    def test_simple_hidden_conflict(self):
        # 0 -> 2 <- 1: CA2 makes 0 and 1 conflict.
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 2] = adj[1, 2] = True
        c = conflict_matrix(adj)
        assert c[0, 1] and c[1, 0]
        assert c[0, 2] and c[1, 2]  # CA1 via edges
        assert not c.diagonal().any()

    @given(st.integers(0, 500))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 14))
        adj = rng.random((n, n)) < 0.3
        np.fill_diagonal(adj, False)
        assert (conflict_matrix(adj) == brute_force_conflicts(adj)).all()

    @given(st.integers(0, 100))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        adj = rng.random((10, 10)) < 0.4
        np.fill_diagonal(adj, False)
        c = conflict_matrix(adj)
        assert (c == c.T).all()

    def test_no_uint8_overflow_on_dense_graphs(self):
        # 300 common out-neighbors would overflow a uint8 accumulator.
        n = 302
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        c = conflict_matrix(adj)
        assert c[0, 1]


@per_kernel
class TestConflictNeighbors:
    def test_matches_matrix_on_geometric_graphs(self):
        g = make_random_graph(seed=5, n=25)
        ids, adj = g.adjacency()
        c = conflict_matrix(adj)
        for i, v in enumerate(ids):
            expected = {ids[j] for j in np.flatnonzero(c[i])}
            assert conflict_neighbors(g, v) == expected
            assert g.conflict_neighbor_ids(v) == expected

    def test_static_graph_fast_path_matches_matrix(self):
        g = StaticDigraph(edges=[(1, 2), (3, 2), (2, 4), (5, 4), (5, 1)])
        ids, adj = g.adjacency()
        c = conflict_matrix(adj)
        for i, v in enumerate(ids):
            expected = {ids[j] for j in np.flatnonzero(c[i])}
            assert conflict_neighbors(g, v) == expected

    def test_are_conflicting_consistency(self):
        g = make_random_graph(seed=6, n=15)
        for u in g.node_ids():
            nbrs = conflict_neighbors(g, u)
            for v in g.node_ids():
                if v != u:
                    assert are_conflicting(g, u, v) == (v in nbrs)

    def test_self_never_conflicts(self):
        g = make_random_graph(seed=7, n=10)
        for u in g.node_ids():
            assert not are_conflicting(g, u, u)
            assert u not in conflict_neighbors(g, u)


@per_kernel
class TestConflictDegree:
    def test_matches_neighbors(self):
        g = make_random_graph(seed=8, n=20)
        degs = conflict_degree(g)
        for v in g.node_ids():
            assert degs[v] == len(conflict_neighbors(g, v))
