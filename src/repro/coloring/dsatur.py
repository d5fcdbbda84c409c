"""Brélaz's DSATUR coloring (reference [9] of the paper).

DSATUR repeatedly colors the uncolored vertex of maximum *saturation
degree* (number of distinct colors among its neighbors), breaking ties by
higher degree, then lower id — a strong centralized heuristic for the
conflict graph.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import conflict_adjacency
from repro.topology.digraph import AdHocDigraph

__all__ = ["dsatur_coloring", "dsatur_color_matrix"]


def dsatur_color_matrix(conflicts: np.ndarray) -> np.ndarray:
    """DSATUR colors (1-based) for a boolean conflict matrix.

    Each step is a handful of O(n) array operations.  The selection key
    packs (saturation, degree) exactly into one float,
    ``saturation + degree·2⁻ᵏ`` with ``2ᵏ > n``, so ``argmax`` — which
    returns the first maximum — picks max saturation, then max degree,
    then min index; colored vertices sit at ``-inf``.  ``used[c]`` marks
    the vertices with a neighbor of color ``c``, so a vertex's smallest
    free color is the first unmarked entry of its column.
    """
    conflicts = np.asarray(conflicts, dtype=bool)
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    key = np.ldexp(conflicts.sum(axis=1, dtype=np.float64), -n.bit_length())
    used = np.zeros((n + 2, n), dtype=bool)
    fresh = np.empty(n, dtype=bool)
    top = 0  # colors above top are unused, so column slices stop at top + 1
    for _ in range(n):
        v = int(key.argmax())
        c = 1 + int(used[1 : top + 2, v].argmin())
        colors[v] = c
        key[v] = -np.inf
        top = max(top, c)
        row, marked = conflicts[v], used[c]
        np.greater(row, marked, out=fresh)  # neighbors that gain color c
        key += fresh
        marked |= row
    return colors


def dsatur_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """DSATUR coloring of ``graph``'s CA1 ∪ CA2 conflict graph."""
    ids, conflicts = conflict_adjacency(graph)
    colors = dsatur_color_matrix(conflicts)
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})
