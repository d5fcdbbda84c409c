"""The BBB centralized coloring baseline.

The paper's evaluation compares against "a strategy that uses a
centralized coloring heuristic: the BBB algorithm of [7]" (Battiti,
Bertossi, Bonuccelli, *Assigning codes in wireless networks*, 1999),
recoloring the entire network at every event.

**Substitution note (see DESIGN.md §3).**  The paper gives no pseudo-code
for BBB; its role in the evaluation is a near-optimal centralized
conflict-graph coloring.  We implement it as DSATUR (Brélaz [9], which
this line of work builds on) over the CA1 ∪ CA2 conflict graph, with a
smallest-last fallback pass that keeps whichever coloring uses fewer
colors.  This preserves the two behaviours the evaluation depends on:
the lowest max-color curve among all strategies, and wholesale recoloring
(huge recoding counts) at every event.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.bounds import receiver_clique_bound
from repro.coloring.dsatur import dsatur_color_matrix
from repro.coloring.greedy import greedy_color_matrix
from repro.coloring.smallest_last import smallest_last_order
from repro.topology.conflicts import conflict_adjacency
from repro.topology.static import DigraphLike
from repro.types import NodeId

__all__ = ["bbb_coloring", "bbb_colors"]


def bbb_colors(graph: DigraphLike) -> tuple[list[NodeId], np.ndarray]:
    """``(ids, colors)`` — the BBB coloring, ids ascending, colors aligned.

    Runs DSATUR and smallest-last greedy over one conflict matrix and
    keeps the coloring with the smaller maximum color (ties prefer
    DSATUR).  The smallest-last pass is skipped when it cannot win: no
    proper coloring uses fewer colors than the receiver clique bound, so
    a DSATUR coloring that meets the bound is kept either way.
    """
    ids, conflicts = conflict_adjacency(graph)
    colors = dsatur_color_matrix(conflicts)
    if len(ids) and colors.max() > receiver_clique_bound(graph):
        sl = greedy_color_matrix(conflicts, smallest_last_order(conflicts))
        if sl.max() < colors.max():
            colors = sl
    return ids, colors


def bbb_coloring(graph: DigraphLike) -> CodeAssignment:
    """Centralized near-optimal coloring of the conflict graph.

    Deterministic; see :func:`bbb_colors` for the construction.
    """
    ids, colors = bbb_colors(graph)
    return CodeAssignment(dict(zip(ids, colors.tolist())))
