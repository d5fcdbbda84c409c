"""Brélaz's DSATUR coloring (reference [9] of the paper).

DSATUR repeatedly colors the uncolored vertex of maximum *saturation
degree* (number of distinct colors among its neighbors), breaking ties by
higher degree, then lower id — a strong centralized heuristic for the
conflict graph.
"""

from __future__ import annotations

import numpy as np

from repro import _native
from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import checked_conflict_matrix, conflict_adjacency
from repro.topology.digraph import AdHocDigraph

__all__ = ["dsatur_coloring", "dsatur_color_matrix"]


def dsatur_color_matrix(conflicts: np.ndarray) -> np.ndarray:
    """DSATUR colors (1-based) for a square boolean conflict matrix.

    Each step picks the uncolored vertex of max saturation, then max
    degree, then min index (integer keys, compared in that order) and
    gives it its smallest free color; the loop runs in the compiled
    kernel library (:mod:`repro._native`).
    """
    conflicts = checked_conflict_matrix(conflicts)
    n = conflicts.shape[0]
    colors = np.empty(n, dtype=np.int64)
    if _native.library().repro_dsatur(n, conflicts.ctypes.data, colors.ctypes.data):
        raise MemoryError(f"DSATUR scratch for n = {n}")
    return colors


def dsatur_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """DSATUR coloring of ``graph``'s CA1 ∪ CA2 conflict graph."""
    ids, conflicts = conflict_adjacency(graph)
    colors = dsatur_color_matrix(conflicts)
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})
