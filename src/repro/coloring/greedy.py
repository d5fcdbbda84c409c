"""First-fit greedy coloring of the conflict graph."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import _native
from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import checked_conflict_matrix, conflict_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.types import NodeId

__all__ = ["first_fit_coloring", "greedy_color_matrix"]


def greedy_color_matrix(conflicts: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """First-fit colors (1-based) for a conflict matrix in ``order``.

    ``order`` must be a permutation of the matrix indices; node
    ``order[0]`` gets color 1, later nodes get the smallest color not
    used by their already colored conflict neighbors.  The loop runs in
    the compiled kernel library (:mod:`repro._native`).
    """
    conflicts = checked_conflict_matrix(conflicts)
    n = conflicts.shape[0]
    idx = np.asarray(order)
    if (
        idx.shape != (n,)
        or (n and idx.dtype.kind not in "iu")
        or not np.array_equal(np.sort(idx), np.arange(n))
    ):
        raise ValueError("order must cover every node exactly once")
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    colors = np.empty(n, dtype=np.int64)
    lib = _native.library()
    if lib.repro_greedy(n, conflicts.ctypes.data, idx.ctypes.data, colors.ctypes.data):
        raise MemoryError(f"first-fit scratch for n = {n}")
    return colors


def first_fit_coloring(
    graph: AdHocDigraph,
    order: Sequence[NodeId] | None = None,
) -> CodeAssignment:
    """Greedy first-fit coloring of ``graph``'s conflict graph.

    Parameters
    ----------
    order:
        Node ids in coloring order; defaults to ascending id.  Every
        node must appear exactly once.
    """
    ids, conflicts = conflict_adjacency(graph)
    index = {v: i for i, v in enumerate(ids)}
    idx_order = range(len(ids)) if order is None else [index[v] for v in order]
    colors = greedy_color_matrix(conflicts, idx_order)
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})
