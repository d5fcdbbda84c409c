"""Tests for the matching solvers: Hungarian, Hopcroft–Karp, SciPy oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.strategies.minim.join as minim_join
from repro.coloring.assignment import CodeAssignment
from repro.errors import MatchingError
from repro.matching import (
    WeightedBipartiteGraph,
    hopcroft_karp_matching,
    hungarian_matching,
    max_weight_matching,
)
from repro.matching.hungarian import solve_max_weight_dense
from repro.matching.scipy_backend import scipy_matching
from repro.strategies.minim import plan_local_matching_recode
from repro.topology.static import StaticDigraph
from tests.strategies.oracles import jv_oracle


def graph_from_matrix(w: np.ndarray) -> WeightedBipartiteGraph:
    n, m = w.shape
    g = WeightedBipartiteGraph(left=list(range(n)), right=[f"c{j}" for j in range(m)])
    for i in range(n):
        for j in range(m):
            if w[i, j] > 0:
                g.add_edge(i, f"c{j}", float(w[i, j]))
    return g


def random_weight_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    w = rng.integers(1, 10, (n, m)).astype(float)
    w[rng.random((n, m)) < 0.5] = 0.0
    return w


class TestHungarianBasics:
    def test_empty_graph(self):
        g = WeightedBipartiteGraph()
        assert hungarian_matching(g).pairs == {}

    def test_no_edges(self):
        g = WeightedBipartiteGraph(left=[1], right=["a"])
        assert hungarian_matching(g).pairs == {}

    def test_prefers_heavy_edge(self):
        g = graph_from_matrix(np.array([[3.0, 0.0], [1.0, 0.0]]))
        r = hungarian_matching(g)
        assert r.pairs == {0: "c0"}
        assert r.total_weight == 3.0

    def test_perfect_matching(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.pairs == {0: "c0", 1: "c1"}
        assert r.total_weight == 4.0

    def test_unmatched_left_allowed(self):
        # Two lefts compete for one right; heavier wins, other unmatched.
        w = np.array([[5.0], [2.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.pairs == {0: "c0"}

    def test_weight3_vs_two_weight1(self):
        # The RecodeOnJoin structure: one weight-3 edge beats... no,
        # loses to two weight-1+weight-3... here: u0-c0 w3 only, u1-c0
        # w1, u1-c1 w1: best is u0-c0 + u1-c1 = 4.
        w = np.array([[3.0, 0.0], [1.0, 1.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.total_weight == 4.0
        assert r.pairs == {0: "c0", 1: "c1"}

    def test_dense_solver_rectangular(self):
        pairs = solve_max_weight_dense(np.array([[1.0, 5.0, 2.0]]))
        assert pairs == [(0, 1)]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_dense_solver_rejects_non_finite_weights(self, bad):
        # An infinite weight used to hang the search; NaN read as forbidden.
        with pytest.raises(MatchingError, match="finite"):
            solve_max_weight_dense(np.array([[bad, 1.0], [2.0, 3.0]]))


class TestHungarianAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_total_weight_matches(self, seed):
        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        ours = hungarian_matching(g)
        oracle = scipy_matching(g)
        ours.validate_against(g)
        oracle.validate_against(g)
        assert ours.total_weight == pytest.approx(oracle.total_weight)

    @given(st.integers(0, 10_000))
    def test_property_random(self, seed):
        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        ours = hungarian_matching(g)
        ours.validate_against(g)
        assert ours.total_weight == pytest.approx(scipy_matching(g).total_weight)


def tie_heavy_matrix(seed: int, n: int, m: int, levels: int, forbidden: float) -> np.ndarray:
    """Integer weights drawn from a few levels, so equal-weight optima abound."""
    rng = np.random.default_rng(seed)
    scale = int(rng.choice([1, 3, 1_000_003]))
    w = rng.integers(1, levels + 1, (n, m)) * scale
    w[rng.random((n, m)) < forbidden] = 0
    if n > 1 and rng.random() < 0.3:
        w[rng.integers(0, n)] = 0  # an all-forbidden row
    return w.astype(np.float64)


class TestJVAgainstPerStepOracle:
    """The lazy-potential search returns exactly the per-step JV's pairs."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 14),
        st.integers(1, 14),
        st.integers(1, 4),
        st.floats(0.0, 0.9),
    )
    def test_tie_heavy_matrices(self, seed, n, m, levels, forbidden):
        w = tie_heavy_matrix(seed, n, m, levels, forbidden)
        assert solve_max_weight_dense(w) == jv_oracle(w)

    @pytest.mark.parametrize(
        "w",
        [
            np.zeros((3, 4)),  # every row forbidden
            np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]]),  # all-forbidden rows around one
            np.full((6, 2), 5.0),  # n > m, all ties
            np.full((2, 7), 5.0),  # m > n, all ties
            np.full((5, 1), 1.0),  # a single column
            np.array([[1.0], [0.0], [3.0], [3.0]]),  # single column, tied best
            np.ones((1, 1)),
            np.zeros((0, 0)),
            np.zeros((0, 5)),  # no rows
            np.zeros((5, 0)),  # no columns
            np.full((300, 300), 7.0),  # all ties at n = 300
        ],
        ids=[
            "all-forbidden",
            "forbidden-rows",
            "n>m",
            "m>n",
            "one-col",
            "one-col-tie",
            "1x1",
            "0x0",
            "0x5",
            "5x0",
            "ties-300",
        ],
    )
    def test_edge_shapes(self, w):
        assert solve_max_weight_dense(w) == jv_oracle(w)

    @pytest.mark.parametrize("n,m", [(300, 300), (300, 60)])
    def test_n_300(self, n, m):
        w = tie_heavy_matrix(n + m, n, m, 3, 0.4)
        assert solve_max_weight_dense(w) == jv_oracle(w)

    def test_non_integer_weights(self):
        # Off the integer grid random weights have one optimum, found by both.
        rng = np.random.default_rng(11)
        for n, m in [(7, 17), (40, 25), (60, 80)]:
            w = rng.random((n, m)) * 100
            w[rng.random((n, m)) < 0.4] = 0
            assert solve_max_weight_dense(w) == jv_oracle(w)

    def test_minim_sized_matrices(self):
        # The p99 recoding matrix is about 65x84 (the median 7x17).
        for seed, (n, m) in enumerate([(7, 17), (30, 40), (65, 84), (90, 60)]):
            w = tie_heavy_matrix(seed, n, m, 3, 0.4)
            assert solve_max_weight_dense(w) == jv_oracle(w)


class TestJVAgainstScipyOracle:
    def test_minim_matching_agrees_with_scipy(self, monkeypatch):
        # The Minim weight graph of a join into members colored
        # 1, 1, 2, 3, 3, solved by the JV and by SciPy: the lexicographic
        # weights make this optimum unique, so the colorings agree.
        pytest.importorskip("scipy")
        g = StaticDigraph(nodes=range(6), edges=[(i, 0) for i in range(1, 6)])
        a = CodeAssignment(dict(zip(range(1, 6), [1, 1, 2, 3, 3])))
        jv = plan_local_matching_recode(g, a, 0)
        monkeypatch.setattr(minim_join, "max_weight_matching", scipy_matching)
        assert plan_local_matching_recode(g, a, 0).new_colors == jv.new_colors


class TestFromMatrix:
    def test_dense_and_edgewise_graphs_agree(self):
        w = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        dense = WeightedBipartiteGraph.from_matrix(["a", "b"], [1, 2, 3], w)
        edgewise = graph_from_matrix(w)
        assert hungarian_matching(dense).total_weight == hungarian_matching(edgewise).total_weight
        assert dense.weight("a", 1) == 3.0 and not dense.has_edge("a", 2)
        assert dense.edge_count() == 3
        assert np.array_equal(dense.weight_matrix(), w)

    def test_dense_graph_accepts_more_edges(self):
        g = WeightedBipartiteGraph.from_matrix([0], ["x"], np.array([[1.0]]))
        g.add_right("y")
        g.add_edge(0, "y", 4.0)
        assert max_weight_matching(g).pairs == {0: "y"}

    def test_rejects_bad_shapes_and_negative_weights(self):
        with pytest.raises(MatchingError, match="shape"):
            WeightedBipartiteGraph.from_matrix([0, 1], ["x"], np.ones((1, 1)))
        with pytest.raises(MatchingError, match="positive"):
            WeightedBipartiteGraph.from_matrix([0], ["x"], -np.ones((1, 1)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(MatchingError, match="finite"):
            WeightedBipartiteGraph.from_matrix([0, 1], ["x", "y"], np.array([[bad, 1.0], [2, 3]]))
        g = WeightedBipartiteGraph(left=[0], right=["x"])
        with pytest.raises(MatchingError, match="finite"):
            g.add_edge(0, "x", bad)
        assert g.edge_count() == 0


class TestBackendDispatch:
    def test_hungarian_default(self):
        g = graph_from_matrix(np.array([[1.0]]))
        assert max_weight_matching(g).pairs == {0: "c0"}

    def test_scipy_backend(self):
        g = graph_from_matrix(np.array([[1.0]]))
        assert scipy_matching(g).pairs == {0: "c0"}


class TestHopcroftKarp:
    def test_max_cardinality_simple(self):
        # 0-c0, 1-c0: cardinality 1. Adding 1-c1 makes it 2.
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        r = hopcroft_karp_matching(graph_from_matrix(w))
        assert r.cardinality == 2

    def test_augmenting_path_needed(self):
        # Classic: 0-{c0}, 1-{c0,c1}, 2-{c1}: perfect requires shifting.
        w = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        r = hopcroft_karp_matching(graph_from_matrix(w))
        assert r.cardinality == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_cardinality_matches_networkx(self, seed):
        import networkx as nx

        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        r = hopcroft_karp_matching(g)
        r_pairs = set(r.pairs.items())
        # networkx oracle
        b = nx.Graph()
        lefts = [("L", i) for i in range(w.shape[0])]
        b.add_nodes_from(lefts, bipartite=0)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                if w[i, j] > 0:
                    b.add_edge(("L", i), ("R", j))
        oracle = nx.bipartite.maximum_matching(b, top_nodes=lefts)
        assert r.cardinality == len(oracle) // 2
        # result is a valid matching
        assert len(set(r.pairs.values())) == len(r.pairs)
        for l, rr in r_pairs:
            assert g.has_edge(l, rr)

    @pytest.mark.parametrize("seed", range(25))
    def test_hungarian_cardinality_never_below_for_uniform_weights(self, seed):
        # With all weights 1, max weight == max cardinality.
        w = (random_weight_matrix(seed) > 0).astype(float)
        g = graph_from_matrix(w)
        assert (
            hungarian_matching(g).cardinality == hopcroft_karp_matching(g).cardinality
        )
