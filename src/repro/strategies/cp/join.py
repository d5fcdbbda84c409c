"""CP join recoding (paper section 3).

"The new node and its 1-hop neighbors exchange information ...  All
pairs of nodes 1 hop away from the new node which have the same colors
violate CA2 and have to select new colors."  CP originates in the
symmetric-link model of [3], so "1 hop away" is the undirected
neighborhood: *all* members of duplicated color classes among the
joiner's in- and out-neighbors re-select (unlike Minim, which recodes
all but one holder per genuinely conflicting class) — along with ``n``
itself.  Selection follows the identifier-ordered
lowest-available-color rule.

The plan is a few array steps: one in/out row read for the members,
one color gather and ``bincount`` for the duplicated classes, then
:func:`repro.strategies.cp.selection.reselect_colors`.  On an
:class:`AdHocDigraph` every row is a slot row; other graphs supply the
same rows through the id queries (:func:`join_partition` here).
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.strategies.cp.selection import reselect_colors
from repro.topology.digraph import AdHocDigraph
from repro.topology.neighborhoods import join_partition
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = ["CPPlan", "plan_cp_join", "duplicated_members"]


@dataclass(frozen=True)
class CPPlan:
    """Outcome of a CP recoding: the reselect set and resulting changes."""

    node: NodeId
    reselect: frozenset[NodeId]
    new_colors: dict[NodeId, Color]
    changes: dict[NodeId, tuple[Color | None, Color]]
    messages: int


def _duplicated(colors: np.ndarray) -> np.ndarray:
    """Mask of the entries whose (nonzero) color occurs more than once."""
    counts = np.bincount(colors)
    return (colors > 0) & (counts[colors] > 1)


def duplicated_members(
    assignment: CodeAssignment,
    members: frozenset[NodeId],
) -> set[NodeId]:
    """Members of ``members`` whose color is shared with another member.

    Members with no assigned code place no constraints and cannot
    duplicate — the same mid-protocol tolerance as
    :func:`repro.coloring.constraints.forbidden_colors`.
    """
    ids = np.fromiter(members, dtype=np.int64, count=len(members))
    return set(ids[_duplicated(assignment.color_array(ids))].tolist())


def _member_ids(graph: DigraphLike, node: NodeId) -> np.ndarray:
    """Ids of ``node``'s in- and out-neighbors (``1n ∪ 2n ∪ 3n``)."""
    if isinstance(graph, AdHocDigraph):
        return graph.slot_ids()[graph.undirected_slots(graph.slot_of(node))]
    part = join_partition(graph, node)
    members = part.in_neighbors | part.out_neighbors
    return np.fromiter(members, dtype=np.int64, count=len(members))


def undirected_degree(graph: DigraphLike, node: NodeId) -> int:
    """Number of nodes with an edge to or from ``node``."""
    if isinstance(graph, AdHocDigraph):
        return len(graph.undirected_slots(graph.slot_of(node)))
    return len(set(graph.in_neighbors(node)) | set(graph.out_neighbors(node)))


def plan_reselect(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    reselect: Set[NodeId],
    degree: int,
    *,
    highest_first: bool,
    vicinity_colors: bool,
    node_announces: bool = False,
) -> CPPlan:
    """The CP plan once the reselect set of ``node``'s event is known.

    Colors come from :func:`reselect_colors` in identifier order; a node
    landing back on its old color is not a change.  Analytic message
    count: ``node`` exchanges color/constraint state with each of its
    ``degree`` 1-hop neighbors (request + reply), then every node that
    changed color announces it to its 2-hop vicinity proxies (one
    message per undirected neighbor).  ``node_announces`` makes
    ``node`` announce even when it keeps its color (a mover re-joins
    uncolored, so its selection is always announced).
    """
    new_colors = reselect_colors(
        graph,
        assignment,
        reselect,
        highest_first=highest_first,
        vicinity_colors=vicinity_colors,
    )
    changes: dict[NodeId, tuple[Color | None, Color]] = {}
    for u, color in new_colors.items():
        old = assignment.get(u)
        if old != color:
            changes[u] = (old, color)
    announcers = list(changes)
    if node_announces and node not in changes:
        announcers.append(node)
    announce = sum(degree if u == node else undirected_degree(graph, u) for u in announcers)
    return CPPlan(
        node=node,
        reselect=frozenset(new_colors),
        new_colors=new_colors,
        changes=changes,
        messages=2 * degree + announce,
    )


def plan_cp_local(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    highest_first: bool,
    vicinity_colors: bool,
    node_announces: bool,
) -> CPPlan:
    """Reselect ``node`` and every member of a duplicated class around it."""
    members = _member_ids(graph, node)
    duplicated = members[_duplicated(assignment.color_array(members))].tolist()
    return plan_reselect(
        graph,
        assignment,
        node,
        {*duplicated, node},
        len(members),
        highest_first=highest_first,
        vicinity_colors=vicinity_colors,
        node_announces=node_announces,
    )


def plan_cp_join(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    highest_first: bool = True,
    vicinity_colors: bool = False,
) -> CPPlan:
    """Plan the CP recode for joined ``node`` (already in ``graph``)."""
    return plan_cp_local(
        graph,
        assignment,
        node,
        highest_first=highest_first,
        vicinity_colors=vicinity_colors,
        node_announces=False,
    )
