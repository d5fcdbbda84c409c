"""CP power-increase recoding (the paper's extension, section 4.2).

"When a node n increases its power range, all nodes up to two hops away
from n that now have a new constraint (due to either CA1 or CA2) with n
and the same old color as n (and thus have a conflict with n), consider
themselves for recoding.  These nodes, along with n, do so in a
distributed fashion in increasing or decreasing order of their
identities."
"""

from __future__ import annotations

from collections.abc import Set

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.strategies.cp.join import CPPlan, plan_reselect, undirected_degree
from repro.topology.conflicts import conflict_neighbors
from repro.topology.static import DigraphLike
from repro.types import NodeId

__all__ = ["plan_cp_power_increase"]


def plan_cp_power_increase(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    old_conflict_neighbors: Set[NodeId],
    *,
    highest_first: bool = True,
    vicinity_colors: bool = False,
) -> CPPlan:
    """Plan the CP recode after ``node`` increased its range.

    ``graph`` must already reflect the enlarged range;
    ``old_conflict_neighbors`` is the node's conflict set before it.
    """
    own = assignment[node]
    around = conflict_neighbors(graph, node)
    row = np.fromiter(around, dtype=np.int64, count=len(around))
    # An uncolored conflict neighbor reads 0 and has no color to
    # duplicate yet.
    same = row[assignment.color_array(row) == own].tolist()
    duplicates = [w for w in same if w not in old_conflict_neighbors]
    return plan_reselect(
        graph,
        assignment,
        node,
        {*duplicates, node},
        undirected_degree(graph, node),
        highest_first=highest_first,
        vicinity_colors=vicinity_colors,
    )
