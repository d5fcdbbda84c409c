"""Smallest-last ordering and coloring.

The smallest-last order repeatedly removes a minimum-degree vertex; the
reverse removal order is a classic greedy-coloring order with a color
count bounded by ``1 + max core number`` (degeneracy).  Included both as
an alternative centralized heuristic and to sanity-check BBB/DSATUR
quality in tests and ablations.
"""

from __future__ import annotations

import numpy as np

from repro import _native
from repro.coloring.assignment import CodeAssignment
from repro.coloring.greedy import greedy_color_matrix
from repro.topology.conflicts import checked_conflict_matrix, conflict_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.types import NodeId

__all__ = ["smallest_last_order", "smallest_last_coloring"]


def smallest_last_order(conflicts: np.ndarray) -> list[int]:
    """Coloring order: reverse of iterated minimum-degree removal.

    Ties break on the lower index (the first minimum) for determinism.
    The loop runs in the compiled kernel library (:mod:`repro._native`).
    """
    conflicts = checked_conflict_matrix(conflicts)
    n = conflicts.shape[0]
    order = np.empty(n, dtype=np.int64)
    if _native.library().repro_smallest_last(n, conflicts.ctypes.data, order.ctypes.data):
        raise MemoryError(f"smallest-last scratch for n = {n}")
    return order.tolist()


def smallest_last_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """Greedy coloring of the conflict graph in smallest-last order."""
    ids, conflicts = conflict_adjacency(graph)
    colors = greedy_color_matrix(conflicts, smallest_last_order(conflicts))
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})


def smallest_last_node_order(graph: AdHocDigraph) -> list[NodeId]:
    """Smallest-last order expressed in node ids."""
    ids, conflicts = conflict_adjacency(graph)
    return [ids[i] for i in smallest_last_order(conflicts)]
