"""Brute-force topology oracle for the conflict cores.

Everything here is re-derived from scratch out of a graph's node
configurations and its propagation model, with all-pairs ``coverage``
calls and dense matrix algebra — none of the incremental bookkeeping
the cores maintain.  The cores must agree with it after every event:

* the adjacency ``A`` (``A[i, j]`` iff ``i`` covers ``j``);
* the CA1 ∪ CA2 conflict matrix, via
  :func:`repro.topology.conflicts.conflict_matrix`;
* the CA2 witness counts ``A·Aᵀ`` with the diagonal zeroed.

All matrices are indexed by node id ascending, like
:meth:`AdHocDigraph.adjacency`.
"""

from __future__ import annotations

import numpy as np

from repro.topology.conflicts import conflict_matrix


def adjacency_oracle(graph) -> tuple[list[int], np.ndarray]:
    """``(ids, A)`` from all-pairs coverage of the node configurations."""
    ids, pos, ranges = graph.positions_and_ranges()
    n = len(ids)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i] = graph.propagation.coverage(pos[i], float(ranges[i]), pos)
    np.fill_diagonal(adj, False)
    return ids, adj


def c2_oracle(adj: np.ndarray) -> np.ndarray:
    """CA2 witness counts ``|out(u) ∩ out(v)|`` with a zero diagonal."""
    a = adj.astype(np.int64)
    c2 = a @ a.T
    np.fill_diagonal(c2, 0)
    return c2


def c2_from_snapshot(snapshot: dict) -> tuple[list[int], np.ndarray]:
    """``(ids, C2)`` read back from a schema-3 snapshot, ids ascending."""
    slot_ids = [int(node[0]) for node in snapshot["nodes"]]
    ids = sorted(slot_ids)
    rank = {node_id: k for k, node_id in enumerate(ids)}
    c2 = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for u, v, count in snapshot["c2"]:
        c2[rank[slot_ids[u]], rank[slot_ids[v]]] = count
    return ids, c2


def assert_matches_oracle(graph) -> None:
    """Adjacency, conflict sets and C2 counters all equal the oracle."""
    ids, adj = adjacency_oracle(graph)
    got_ids, got_adj = graph.adjacency()
    assert got_ids == ids
    np.testing.assert_array_equal(got_adj, adj)
    conflicts = conflict_matrix(adj)
    np.testing.assert_array_equal(graph.conflict_adjacency()[1], conflicts)
    for k, node_id in enumerate(ids):
        want = {ids[j] for j in np.flatnonzero(conflicts[k]).tolist()}
        assert graph.conflict_neighbor_ids(node_id) == want
    snap_ids, c2 = c2_from_snapshot(graph.snapshot())
    assert snap_ids == ids
    np.testing.assert_array_equal(c2, c2_oracle(adj))


def apply_row_oracle(adj: np.ndarray, c2: np.ndarray, n: int, i: int, new_row: np.ndarray) -> None:
    """Replace slot ``i``'s out-row of ``(cap, cap)`` core blocks in numpy.

    The array core's former batched form, kept as the reference for
    ``repro_c2_row``: when ``i`` starts (stops) covering a receiver
    ``w``, every other in-neighbor of ``w`` gains (loses) one witness
    with ``i``, fused into one signed matvec over the changed receivers'
    columns.
    """
    old_row = adj[i, :n]
    idx = (old_row != new_row).nonzero()[0]
    if idx.size:
        sign = np.where(new_row[idx], np.int32(1), np.int32(-1))
        cnt = adj[:n, idx] @ sign
        cnt[i] = 0  # no (i, i) pair; i's own row is the one changing
        c2[i, :n] += cnt
        c2[:n, i] += cnt
    adj[i, :n] = new_row


def apply_col_oracle(adj: np.ndarray, c2: np.ndarray, n: int, i: int, new_col: np.ndarray) -> None:
    """Replace slot ``i``'s in-column of ``(cap, cap)`` core blocks in numpy.

    The array core's former form, kept as the reference for
    ``repro_c2_col``: retract the old in-neighbor clique
    (``C2[old × old] -= 1``), assert the new one (``C2[new × new] +=
    1``), and take the diagonal terms back.
    """
    old_col = adj[:n, i]
    if (old_col != new_col).any():
        old = old_col.nonzero()[0]
        new = new_col.nonzero()[0]
        if old.size:
            c2[old[:, None], old] -= 1
            c2[old, old] += 1
        if new.size:
            c2[new[:, None], new] += 1
            c2[new, new] -= 1
    adj[:n, i] = new_col
