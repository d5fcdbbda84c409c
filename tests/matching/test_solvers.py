"""Tests for the matcher: basics, validity, the per-step JV oracle, SciPy and networkx."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.strategies.minim.join as minim_join
from repro.coloring.assignment import CodeAssignment
from repro.errors import MatchingError
from repro.matching import max_weight_matching
from repro.strategies.minim import plan_local_matching_recode
from repro.topology.static import StaticDigraph
from tests.strategies.oracles import jv_oracle


def as_pairs(match: np.ndarray) -> list[tuple[int, int]]:
    """The ``(row, col)`` pairs of a match array, rows ascending."""
    return [(i, j) for i, j in enumerate(match.tolist()) if j >= 0]


def matched_weight(w: np.ndarray, match: np.ndarray) -> float:
    """Total weight of ``match``, after checking it is a matching of ``w``."""
    pairs = as_pairs(match)
    cols = [j for _, j in pairs]
    assert len(set(cols)) == len(cols), f"a column matched twice: {pairs}"
    assert all(w[i, j] > 0 for i, j in pairs), f"a forbidden pair matched: {pairs}"
    return float(sum(w[i, j] for i, j in pairs))


def scipy_oracle(weights: np.ndarray) -> np.ndarray:
    """Maximum-weight matching via ``scipy.optimize.linear_sum_assignment``.

    Pads the matrix with zero-weight dummy columns so rows may stay
    unmatched, then drops dummy and forbidden assignments — the padding
    argument of :mod:`repro.matching`.
    """
    from scipy.optimize import linear_sum_assignment

    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    match = np.full(n, -1, dtype=np.int64)
    if n == 0 or m == 0:
        return match
    padded = np.zeros((n, m + n), dtype=np.float64)
    padded[:, :m] = np.maximum(w, 0.0)
    for i, j in zip(*linear_sum_assignment(padded, maximize=True)):
        if j < m and w[i, j] > 0:
            match[i] = j
    return match


def random_weight_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    w = rng.integers(1, 10, (n, m)).astype(float)
    w[rng.random((n, m)) < 0.5] = 0.0
    return w


class TestHungarianBasics:
    def test_empty_graph(self):
        assert max_weight_matching(np.zeros((0, 0))).tolist() == []

    def test_no_edges(self):
        assert max_weight_matching(np.zeros((1, 1))).tolist() == [-1]

    def test_prefers_heavy_edge(self):
        w = np.array([[3.0, 0.0], [1.0, 0.0]])
        match = max_weight_matching(w)
        assert match.tolist() == [0, -1]
        assert matched_weight(w, match) == 3.0

    def test_perfect_matching(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        match = max_weight_matching(w)
        assert match.tolist() == [0, 1]
        assert matched_weight(w, match) == 4.0

    def test_unmatched_left_allowed(self):
        # Two rows compete for one column; heavier wins, other unmatched.
        assert max_weight_matching(np.array([[5.0], [2.0]])).tolist() == [0, -1]

    def test_weight3_vs_two_weight1(self):
        # The RecodeOnJoin structure: u0-c0 w3 only, u1-c0 w1, u1-c1 w1:
        # best is u0-c0 + u1-c1 = 4.
        w = np.array([[3.0, 0.0], [1.0, 1.0]])
        match = max_weight_matching(w)
        assert matched_weight(w, match) == 4.0
        assert match.tolist() == [0, 1]

    def test_dense_solver_rectangular(self):
        match = max_weight_matching(np.array([[1.0, 5.0, 2.0]]))
        assert match.dtype == np.int64 and match.tolist() == [1]

    def test_int_matrix_and_negative_weights(self):
        # Any numeric matrix is read as float64; entries <= 0 are forbidden.
        w = np.array([[-4, 2], [7, -1]])
        assert max_weight_matching(w).tolist() == [1, 0]
        assert max_weight_matching(-np.ones((1, 1))).tolist() == [-1]

    def test_augmenting_path_needed(self):
        # Greedy row order takes (0, 0) and strands row 1; the optimum
        # reroutes row 0 along an augmenting path to column 1.
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert max_weight_matching(w).tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_dense_solver_rejects_non_finite_weights(self, bad):
        # An infinite weight used to hang the search; NaN read as forbidden.
        with pytest.raises(MatchingError, match="finite"):
            max_weight_matching(np.array([[bad, 1.0], [2.0, 3.0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()], ids=["1d", "3d", "0d"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(MatchingError, match="2-D"):
            max_weight_matching(np.ones(shape))


class TestMatchIsValid:
    @pytest.mark.parametrize("seed", range(25))
    def test_result_is_a_maximal_matching(self, seed):
        # Negative entries are forbidden like zeros.  A maximum-weight
        # matching with positive weights is maximal: no unmatched row
        # has a positive-weight pair with a free column.
        rng = np.random.default_rng(seed)
        w = random_weight_matrix(seed)
        w[rng.random(w.shape) < 0.2] *= -1
        match = max_weight_matching(w)
        assert match.dtype == np.int64 and match.shape == (w.shape[0],)
        assert ((match >= -1) & (match < w.shape[1])).all()
        matched_weight(w, match)
        free = np.ones(w.shape[1], dtype=bool)
        free[match[match >= 0]] = False
        for i in np.flatnonzero(match < 0):
            assert not (w[i, free] > 0).any(), f"row {i} could take a free column"


class TestHungarianAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_total_weight_matches(self, seed):
        w = random_weight_matrix(seed)
        ours = matched_weight(w, max_weight_matching(w))
        assert ours == pytest.approx(matched_weight(w, scipy_oracle(w)))

    @given(st.integers(0, 10_000))
    def test_property_random(self, seed):
        w = random_weight_matrix(seed)
        ours = matched_weight(w, max_weight_matching(w))
        assert ours == pytest.approx(matched_weight(w, scipy_oracle(w)))


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
        assert as_pairs(max_weight_matching(w)) == jv_oracle(w)

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
        match = max_weight_matching(w)
        assert len(match) == w.shape[0]
        assert as_pairs(match) == jv_oracle(w)

    @pytest.mark.parametrize("n,m", [(300, 300), (300, 60)])
    def test_n_300(self, n, m):
        w = tie_heavy_matrix(n + m, n, m, 3, 0.4)
        assert as_pairs(max_weight_matching(w)) == jv_oracle(w)

    def test_non_integer_weights(self):
        # Off the integer grid random weights have one optimum, found by both.
        rng = np.random.default_rng(11)
        for n, m in [(7, 17), (40, 25), (60, 80)]:
            w = rng.random((n, m)) * 100
            w[rng.random((n, m)) < 0.4] = 0
            assert as_pairs(max_weight_matching(w)) == jv_oracle(w)

    def test_minim_sized_matrices(self):
        # The p99 recoding matrix is about 65x84 (the median 7x17).
        for seed, (n, m) in enumerate([(7, 17), (30, 40), (65, 84), (90, 60)]):
            w = tie_heavy_matrix(seed, n, m, 3, 0.4)
            assert as_pairs(max_weight_matching(w)) == jv_oracle(w)


class TestJVAgainstScipyOracle:
    def test_minim_matching_agrees_with_scipy(self, monkeypatch):
        # The Minim weight matrix of a join into members colored
        # 1, 1, 2, 3, 3, solved by the JV and by SciPy: the lexicographic
        # weights make this optimum unique, so the colorings agree.
        pytest.importorskip("scipy")
        g = StaticDigraph(nodes=range(6), edges=[(i, 0) for i in range(1, 6)])
        a = CodeAssignment(dict(zip(range(1, 6), [1, 1, 2, 3, 3])))
        jv = plan_local_matching_recode(g, a, 0)
        monkeypatch.setattr(minim_join, "max_weight_matching", scipy_oracle)
        assert plan_local_matching_recode(g, a, 0).new_colors == jv.new_colors


class TestCardinalityAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(25))
    def test_uniform_weights_cardinality_matches_networkx(self, seed):
        # With all weights 1, max weight == max cardinality.
        import networkx as nx

        w = (random_weight_matrix(seed) > 0).astype(float)
        b = nx.Graph()
        lefts = [("L", i) for i in range(w.shape[0])]
        b.add_nodes_from(lefts, bipartite=0)
        b.add_edges_from((("L", i), ("R", j)) for i, j in zip(*np.nonzero(w)))
        oracle = nx.bipartite.maximum_matching(b, top_nodes=lefts)
        match = max_weight_matching(w)
        assert matched_weight(w, match) == len(oracle) // 2

    @pytest.mark.parametrize("seed", range(25))
    def test_total_weight_matches_networkx(self, seed):
        # networkx's blossom solver is an oracle independent of SciPy's.
        import networkx as nx

        w = random_weight_matrix(seed)
        b = nx.Graph()
        b.add_weighted_edges_from(
            (("L", i), ("R", j), int(w[i, j])) for i, j in zip(*np.nonzero(w > 0))
        )
        oracle = nx.max_weight_matching(b)
        best = sum(b[u][v]["weight"] for u, v in oracle)
        assert matched_weight(w, max_weight_matching(w)) == best
