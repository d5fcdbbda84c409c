"""The CA1 ∪ CA2 conflict graph.

Two nodes *conflict* — must be assigned distinct codes — iff

* **CA1**: there is an edge between them in either direction, or
* **CA2**: they have a common out-neighbor (both transmit into the same
  receiver).

A code assignment satisfies the TOCA constraints exactly when it is a
proper coloring of this (undirected) conflict graph.  The dense
construction is a pure NumPy expression, ``A | Aᵀ | (A·Aᵀ > 0)``.
"""

from __future__ import annotations

import numpy as np

from repro.topology.digraph import AdHocDigraph
from repro.types import NodeId

__all__ = [
    "are_conflicting",
    "checked_conflict_matrix",
    "conflict_adjacency",
    "conflict_degree",
    "conflict_matrix",
    "conflict_neighbors",
    "conflict_neighbors_of_mask",
]


def conflict_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Dense symmetric conflict matrix from a boolean adjacency matrix.

    ``C[i, j]`` is True iff nodes at indices ``i`` and ``j`` conflict.
    The diagonal is False.

    The common-out-neighbor term uses an integer matmul (``int32``
    accumulator) to avoid bool-matmul pitfalls and uint8 overflow.
    """
    a = np.asarray(adjacency, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    ai = a.astype(np.int32)
    common_out = (ai @ ai.T) > 0
    conflicts = a | a.T | common_out
    np.fill_diagonal(conflicts, False)
    return conflicts


def checked_conflict_matrix(conflicts: np.ndarray) -> np.ndarray:
    """``conflicts`` as a C-contiguous array, after checking its form.

    The compiled coloring kernels index the matrix as ``n * n`` bytes,
    so it must be a square, 2-D, boolean array; anything else raises
    :class:`ValueError` before a kernel reads it.
    """
    a = np.asarray(conflicts)
    if a.dtype != bool or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(
            f"conflict matrix must be a square 2-D boolean array, got {a.dtype} of shape {a.shape}"
        )
    return np.ascontiguousarray(a)


def conflict_adjacency(graph) -> tuple[list[NodeId], np.ndarray]:
    """``(ids, C)`` — the full conflict matrix of ``graph``, ids ascending.

    Delegates to the graph's native ``conflict_adjacency`` when available
    (:class:`AdHocDigraph` assembles it from incrementally maintained
    CA2 counters without a matmul); otherwise derives it densely from
    the exported adjacency matrix.  Whole-network consumers — the BBB
    recolor, coloring heuristics, clique bounds — should call this
    instead of ``conflict_matrix(graph.adjacency()[1])``.
    """
    native = getattr(graph, "conflict_adjacency", None)
    if native is not None:
        return native()
    ids, adj = graph.adjacency()
    return ids, conflict_matrix(adj)


def conflict_neighbors(graph, node_id: NodeId) -> set[NodeId]:
    """All nodes that conflict with ``node_id`` in ``graph``.

    Delegates to the graph's native ``conflict_neighbor_ids`` fast path
    when available (both :class:`AdHocDigraph` and ``StaticDigraph``
    provide one); otherwise falls back to a masked scan of the exported
    adjacency matrix.
    """
    native = getattr(graph, "conflict_neighbor_ids", None)
    if native is not None:
        return native(node_id)
    ids, adj = graph.adjacency()
    idx = {v: k for k, v in enumerate(ids)}
    i = idx.get(node_id)
    if i is None:
        from repro.errors import UnknownNodeError

        raise UnknownNodeError(node_id)
    mask = conflict_neighbors_of_mask(adj, i)
    return {ids[j] for j in np.flatnonzero(mask)}


def conflict_neighbors_of_mask(adjacency: np.ndarray, i: int) -> np.ndarray:
    """Boolean mask of indices conflicting with index ``i``.

    Vectorized: ``A[i] | A[:, i] | any_j(A[:, j] for j in out(i))``.
    """
    a = np.asarray(adjacency, dtype=bool)
    out_targets = a[i]
    if out_targets.any():
        common_out = a[:, out_targets].any(axis=1)
    else:
        common_out = np.zeros(a.shape[0], dtype=bool)
    mask = a[i] | a[:, i] | common_out
    mask[i] = False
    return mask


def are_conflicting(graph: AdHocDigraph, u: NodeId, v: NodeId) -> bool:
    """Whether ``u`` and ``v`` conflict (CA1 or CA2) in ``graph``."""
    if u == v:
        return False
    if graph.has_edge(u, v) or graph.has_edge(v, u):
        return True
    out_u = set(graph.out_neighbors(u))
    if not out_u:
        return False
    return any(w in out_u for w in graph.out_neighbors(v))


def conflict_degree(graph: AdHocDigraph) -> dict[NodeId, int]:
    """Conflict-graph degree of every node (used by coloring heuristics)."""
    ids, adj = graph.adjacency()
    c = conflict_matrix(adj)
    degs = c.sum(axis=1)
    return {ids[i]: int(degs[i]) for i in range(len(ids))}
