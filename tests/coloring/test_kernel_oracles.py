"""The compiled coloring kernels against their pure-Python oracles.

Byte-identical BBB series rest on these: DSATUR, smallest-last and
first-fit must reproduce the set-based loops exactly, tie-breaking
included, and BBB's clique-bound shortcut must never change its choice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.bbb import bbb_colors
from repro.coloring.dsatur import dsatur_color_matrix
from repro.coloring.greedy import first_fit_coloring, greedy_color_matrix
from repro.coloring.smallest_last import smallest_last_order
from repro.topology.conflicts import conflict_adjacency, conflict_matrix
from tests.coloring.oracles import (
    bbb_oracle,
    dsatur_oracle,
    greedy_oracle,
    smallest_last_oracle,
)
from tests.conftest import make_random_graph


def assert_kernels_match(conflicts: np.ndarray) -> None:
    assert dsatur_color_matrix(conflicts).tolist() == dsatur_oracle(conflicts).tolist()
    order = smallest_last_oracle(conflicts)
    assert smallest_last_order(conflicts) == order
    shuffled = np.random.default_rng(len(order)).permutation(len(order)).tolist()
    for o in (order, shuffled):
        assert greedy_color_matrix(conflicts, o).tolist() == greedy_oracle(conflicts, o).tolist()


def random_conflicts(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    adj = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    return conflict_matrix(adj)


# Paper-style unit-disc digraphs, from sparse to near-complete conflict graphs.
GRAPHS = [
    (seed, n, lo)
    for seed in range(3)
    for n, lo in [(5, 20.5), (30, 10.0), (60, 17.5), (100, 17.5), (100, 42.5), (120, 62.5)]
]


@pytest.mark.parametrize("seed,n,min_range", GRAPHS)
def test_kernels_match_oracles_on_unit_disc_graphs(seed, n, min_range):
    graph = make_random_graph(seed, n, min_range=min_range, max_range=min_range + 5)
    _, conflicts = conflict_adjacency(graph)
    assert_kernels_match(conflicts)


@pytest.mark.parametrize("seed,n,min_range", GRAPHS)
def test_bbb_matches_both_pass_oracle(seed, n, min_range):
    graph = make_random_graph(seed, n, min_range=min_range, max_range=min_range + 5)
    ids, colors = bbb_colors(graph)
    assert ids == sorted(graph.node_ids())
    assert colors.tolist() == bbb_oracle(conflict_adjacency(graph)[1]).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.floats(0.0, 1.0))
def test_kernels_match_oracles_on_random_matrices(seed, n, density):
    assert_kernels_match(random_conflicts(np.random.default_rng(seed), n, density))


@pytest.mark.parametrize(
    "conflicts",
    [
        np.zeros((0, 0), dtype=bool),
        np.zeros((1, 1), dtype=bool),
        np.zeros((7, 7), dtype=bool),  # all ties on degree and saturation
        ~np.eye(9, dtype=bool),  # complete graph: n colors
        np.kron(np.eye(3, dtype=bool), ~np.eye(4, dtype=bool)),  # disjoint cliques
        np.zeros((300, 300), dtype=bool),  # all ties at n = 300
        ~np.eye(300, dtype=bool),  # complete graph at n = 300
        np.kron(np.eye(20, dtype=bool), ~np.eye(15, dtype=bool)),  # 20 tied 15-cliques
    ],
    ids=[
        "empty",
        "single",
        "edgeless",
        "complete",
        "disjoint-cliques",
        "edgeless-300",
        "complete-300",
        "disjoint-cliques-300",
    ],
)
def test_kernels_match_oracles_on_tie_heavy_shapes(conflicts):
    assert_kernels_match(conflicts)


def test_dsatur_key_stays_exact_at_large_n():
    # The (saturation, degree) keys are compared as integers, so the order
    # must stay exact when both run to hundreds.
    assert_kernels_match(random_conflicts(np.random.default_rng(5), 300, 0.6))


@pytest.mark.parametrize("density", [0.02, 0.1, 0.3])
def test_kernels_match_oracles_at_n_300(density):
    assert_kernels_match(random_conflicts(np.random.default_rng(300), 300, density))


def test_unit_disc_graph_at_n_300():
    graph = make_random_graph(7, 300, min_range=17.5, max_range=22.5)
    _, conflicts = conflict_adjacency(graph)
    assert_kernels_match(conflicts)
    assert bbb_colors(graph)[1].tolist() == bbb_oracle(conflicts).tolist()


PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)


@pytest.mark.parametrize(
    "order",
    [[0, 0, 2], [-1, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [0.0, 1.0, 2.0], [[0, 1, 2]]],
    ids=["duplicate", "negative", "short", "long", "out-of-range", "float", "2-d"],
)
def test_greedy_rejects_an_order_that_is_not_a_permutation(order):
    with pytest.raises(ValueError, match="order must cover every node exactly once"):
        greedy_color_matrix(PATH3, order)


@pytest.mark.parametrize(
    "conflicts",
    [np.zeros((2, 3), dtype=bool), np.zeros(4, dtype=bool), PATH3.astype(int)],
    ids=["non-square", "1-d", "int"],
)
def test_kernels_reject_a_malformed_matrix(conflicts):
    for kernel in (dsatur_color_matrix, smallest_last_order):
        with pytest.raises(ValueError, match="square 2-D boolean"):
            kernel(conflicts)
    with pytest.raises(ValueError, match="square 2-D boolean"):
        greedy_color_matrix(conflicts, [0, 1])


def test_first_fit_rejects_duplicate_node_ids(line_graph):
    ids = sorted(line_graph.node_ids())
    with pytest.raises(ValueError, match="order must cover every node exactly once"):
        first_fit_coloring(line_graph, [ids[0]] * len(ids))


def test_bbb_shortcut_is_exercised_both_ways():
    """The corpus holds graphs where smallest-last wins and where it is skipped."""
    sl_wins = skipped = 0
    for seed in range(40):
        graph = make_random_graph(seed, 40, min_range=17.5, max_range=22.5)
        _, conflicts = conflict_adjacency(graph)
        _, colors = bbb_colors(graph)
        ds = dsatur_oracle(conflicts)
        sl_wins += colors.tolist() != ds.tolist()
        _, adj = graph.adjacency()
        skipped += int(ds.max()) == int(adj.sum(axis=0).max()) + 1
        assert colors.tolist() == bbb_oracle(conflicts).tolist()
    assert sl_wins and skipped
