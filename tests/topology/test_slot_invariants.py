"""Property-based slot-table invariants under randomized churn.

``AdHocDigraph._vacate_slot`` is the shared swap-delete tail of every
removal: it renumbers the last slot into the freed one across *all*
per-slot tables (positions, ranges, id maps, the core's adjacency/C2
blocks).  These tests hammer it with seeded random
add/remove/move/set-range sequences and assert the full set of
structural invariants after every step, plus agreement with the
brute-force topology oracle — the class
of bug a swap-delete rewrite can introduce (a stale slot reference, an
uncleared trailing row, an asymmetric witness count) surfaces here
rather than as a downstream equivalence drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.obstacles import RectObstacle
from repro.topology.cores.array import ArrayCore
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation
from tests.topology.oracles import (
    apply_col_oracle,
    apply_row_oracle,
    assert_matches_oracle,
    c2_oracle,
)

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


def _check_slot_tables(g: AdHocDigraph) -> None:
    """The id↔slot maps agree and every per-slot table is aligned."""
    n = len(g.node_ids())
    ids = list(g._ids)
    assert len(ids) == n == len(g._index)
    assert g._ida[:n].tolist() == ids
    for node_id, slot in g._index.items():
        assert ids[slot] == node_id
    for node_id in ids:
        cfg = g.config(node_id)
        slot = g._index[node_id]
        assert (g._pos[slot] == (cfg.x, cfg.y)).all()
        assert g._range[slot] == cfg.tx_range


def _check_trailing_slots_clear(g: AdHocDigraph) -> None:
    """Swap-delete must zero the freed trailing rows, not just hide them."""
    n = len(g.node_ids())
    core = g._core
    assert core.n == n
    assert not core.adj[n:].any()
    assert not core.adj[:, n:].any()
    assert not core.c2[n:].any()
    assert not core.c2[:, n:].any()


def _check_all(g: AdHocDigraph) -> None:
    _check_slot_tables(g)
    assert_matches_oracle(g)
    _check_trailing_slots_clear(g)


def _churn(g: AdHocDigraph, seed: int, steps: int = 90) -> None:
    """Seeded random add/remove/move/set-range, checked after every step."""
    rng = np.random.default_rng(seed)
    alive: list[int] = []
    next_id = 1
    for _ in range(steps):
        op = int(rng.integers(0, 6))
        if op in (0, 1) or not alive:
            g.add_node(
                NodeConfig(
                    next_id,
                    float(rng.uniform(0, 120)),
                    float(rng.uniform(0, 120)),
                    float(rng.uniform(5, 45)),
                )
            )
            alive.append(next_id)
            next_id += 1
        elif op in (2, 3):
            v = alive.pop(int(rng.integers(0, len(alive))))
            g.remove_node(v)
        elif op == 4:
            v = alive[int(rng.integers(0, len(alive)))]
            g.move_node(v, float(rng.uniform(0, 120)), float(rng.uniform(0, 120)))
        else:
            v = alive[int(rng.integers(0, len(alive)))]
            g.set_range(v, float(rng.uniform(5, 45)))
        _check_all(g)
    assert sorted(g.node_ids()) == sorted(alive)


class TestSlotInvariantsUnderChurn:
    @per_kernel
    @pytest.mark.parametrize("seed", range(6))
    def test_random_churn_preserves_invariants(self, seed):
        _churn(AdHocDigraph(), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_churn_under_obstruction_preserves_invariants(self, seed):
        # line-of-sight prunes links inside the transmission discs
        walls = (RectObstacle(30.0, 20.0, 45.0, 90.0), RectObstacle(70.0, 60.0, 110.0, 75.0))
        _churn(AdHocDigraph(ObstructedPropagation(walls)), seed + 10)

    @per_kernel
    def test_remove_last_slot_and_drain_to_empty(self):
        # the i == last branch (no swap), then drain through repeated
        # swap-deletes of slot 0, then rebuild on the emptied tables
        g = AdHocDigraph()
        for i in range(1, 13):
            g.add_node(NodeConfig(i, float(3 * i), float(2 * i), 20.0))
        g.remove_node(12)  # departing node *is* the last slot
        _check_all(g)
        while g.node_ids():
            g.remove_node(g._ids[0])  # always vacate slot 0
            _check_all(g)
        for i in range(20, 26):
            g.add_node(NodeConfig(i, float(i), float(i), 15.0))
        _check_all(g)


def _dense_cluster_churn(g: AdHocDigraph, seed: int) -> dict:
    """Joins, moves, range changes and removals inside one dense cluster.

    Nearly every node covers every other, so receiver in-degrees pass
    100 and every join or move rewrites a clique of that size.  The
    population climbs past the 128-slot capacity (the blocks double to
    256 partway through, so ``cap != n``) and then drains to below 128
    (``cap > n`` again), checked after every step.
    """
    rng = np.random.default_rng(seed)
    alive: list[int] = []
    next_id = 1
    seen = {"caps": set(), "max_in": 0}

    def join() -> None:
        nonlocal next_id
        x, y = rng.uniform(0, 24, size=2)
        g.add_node(NodeConfig(next_id, float(x), float(y), float(rng.uniform(28, 40))))
        alive.append(next_id)
        next_id += 1

    def step(op: int) -> None:
        if op == 0:
            join()
        elif op == 1:
            g.remove_node(alive.pop(int(rng.integers(0, len(alive)))))
        elif op == 2:
            v = alive[int(rng.integers(0, len(alive)))]
            g.move_node(v, float(rng.uniform(0, 24)), float(rng.uniform(0, 24)))
        else:
            v = alive[int(rng.integers(0, len(alive)))]
            g.set_range(v, float(rng.uniform(10, 40)))
        _check_all(g)
        seen["caps"].add(len(g._core.adj))
        seen["max_in"] = max(seen["max_in"], int(g._core.in_degrees().max()))

    for _ in range(100):
        join()
    _check_all(g)
    while len(alive) < 140:
        step(int(rng.choice(4, p=[0.55, 0.15, 0.2, 0.1])))
    while len(alive) > 110:
        step(int(rng.choice(4, p=[0.1, 0.6, 0.2, 0.1])))
    return seen


def _random_blocks(rng, n: int, cap: int, density: float):
    """An array core at ``n`` live slots of ``cap`` with a random digraph."""
    adj = np.zeros((cap, cap), dtype=bool)
    adj[:n, :n] = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    a = adj.astype(np.int32)
    c2 = a @ a.T
    np.fill_diagonal(c2, 0)
    core = ArrayCore(cap)
    core.resize(n)
    core.adj[:] = adj
    core.c2[:] = c2
    return core


def _random_edit(rng, old: np.ndarray, i: int) -> np.ndarray:
    """A new row/column for slot ``i``: a few flips, a fresh draw or empty."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        new = np.zeros(len(old), dtype=bool)
    elif kind == 1:
        new = rng.random(len(old)) < rng.uniform(0.05, 0.9)
    else:
        new = old.copy()
        flips = rng.integers(0, len(old), size=int(rng.integers(1, 12)))
        new[flips] = ~new[flips]
    new[i] = False
    return new


class TestDenseClusterChurn:
    @pytest.mark.parametrize("seed", range(2))
    def test_dense_cluster_churn_keeps_exact_counters(self, seed):
        g = AdHocDigraph()
        seen = _dense_cluster_churn(g, seed)
        assert seen["max_in"] > 100
        assert {128, 256} <= seen["caps"]
        # the cluster crossed the doubling and drained back below it
        assert g._core.n < 128 < len(g._core.adj)


class TestCounterKernelsMatchTheNumpyForm:
    """``repro_c2_row``/``repro_c2_col`` against the former numpy bodies
    (:func:`apply_row_oracle`, :func:`apply_col_oracle`), whole blocks
    compared byte for byte after every event."""

    @pytest.mark.parametrize(("n", "cap"), [(45, 64), (64, 64)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_events(self, n, cap, seed):
        rng = np.random.default_rng(seed)
        core = _random_blocks(rng, n, cap, density=rng.uniform(0.1, 0.6))
        adj, c2 = core.adj.copy(), core.c2.copy()
        for _ in range(300):
            i = int(rng.integers(0, n))
            op = int(rng.integers(0, 4))
            if op == 0:
                new = _random_edit(rng, adj[i, :n], i)
                core._apply_row(i, new)
                apply_row_oracle(adj, c2, n, i, new)
            elif op == 1:
                new = _random_edit(rng, adj[:n, i], i)
                core._apply_col(i, new)
                apply_col_oracle(adj, c2, n, i, new)
            elif op == 2:
                row = _random_edit(rng, adj[i, :n], i)
                col = _random_edit(rng, adj[:n, i], i)
                core.set_rows(i, row.nonzero()[0], col.nonzero()[0])
                apply_row_oracle(adj, c2, n, i, row)
                apply_col_oracle(adj, c2, n, i, col)
            else:
                core.unlink(i)
                apply_col_oracle(adj, c2, n, i, np.zeros(n, dtype=bool))
                adj[i, :n] = False
                c2[i, :n] = 0
                c2[:n, i] = 0
            assert core.adj.tobytes() == adj.tobytes()
            assert core.c2.tobytes() == c2.tobytes()
        np.testing.assert_array_equal(c2[:n, :n], c2_oracle(adj[:n, :n]))
