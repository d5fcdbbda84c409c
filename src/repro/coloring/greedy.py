"""First-fit greedy coloring of the conflict graph."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import conflict_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.types import NodeId

__all__ = ["first_fit_coloring", "greedy_color_matrix"]


def greedy_color_matrix(conflicts: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """First-fit colors (1-based) for a conflict matrix in ``order``.

    ``order`` is a permutation of matrix indices; node ``order[0]`` gets
    color 1, later nodes get the smallest color not used by their already
    colored conflict neighbors.  ``used[c]`` marks the nodes with a
    neighbor of color ``c``, so each step is one column scan and one row
    update.
    """
    conflicts = np.asarray(conflicts, dtype=bool)
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    used = np.zeros((n + 2, n), dtype=bool)
    top = 0  # colors above top are unused, so column slices stop at top + 1
    for i in order:
        c = 1 + int(used[1 : top + 2, i].argmin())
        colors[i] = c
        used[c] |= conflicts[i]
        top = max(top, c)
    return colors


def first_fit_coloring(
    graph: AdHocDigraph,
    order: Sequence[NodeId] | None = None,
) -> CodeAssignment:
    """Greedy first-fit coloring of ``graph``'s conflict graph.

    Parameters
    ----------
    order:
        Node ids in coloring order; defaults to ascending id.
    """
    ids, conflicts = conflict_adjacency(graph)
    index = {v: i for i, v in enumerate(ids)}
    if order is None:
        idx_order = list(range(len(ids)))
    else:
        idx_order = [index[v] for v in order]
        if len(idx_order) != len(ids):
            raise ValueError("order must cover every node exactly once")
    colors = greedy_color_matrix(conflicts, idx_order)
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})
