"""The BBB global baseline: recolor the whole network at every event.

Paper section 5: "(1) a strategy that uses a centralized coloring
heuristic: the BBB algorithm of [7], to recolor the entire network at
every event."  The number of recodings is the diff against the previous
assignment, so this strategy achieves near-optimal color counts at the
price of wholesale recoding — the paper's Fig 10(b) shows it off the
chart versus the distributed strategies.
"""

from __future__ import annotations

from collections.abc import Set

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.bbb import bbb_colors
from repro.strategies.base import RecodeResult, RecodingStrategy
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = ["BBBGlobalStrategy"]


class BBBGlobalStrategy(RecodingStrategy):
    """Centralized recolor-everything baseline."""

    name = "BBB"

    def _recolor(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        event_kind: str,
        node_id: NodeId,
    ) -> RecodeResult:
        ids, colors = bbb_colors(graph)
        # One compare against the lane's colors (0 = uncolored); only
        # the changed nodes are visited in Python.
        old = assignment.color_array(ids)
        changed = np.flatnonzero(old != colors).tolist()
        old_list, new_list = old.tolist(), colors.tolist()
        changes: dict[NodeId, tuple[Color | None, Color]] = {
            ids[j]: (old_list[j] or None, new_list[j]) for j in changed
        }
        # A central coordinator collects the whole topology and pushes
        # every node's (possibly unchanged) color back out.
        messages = 2 * len(ids)
        return RecodeResult(event_kind, node_id, changes, messages=messages)

    def on_join(
        self, graph: DigraphLike, assignment: CodeAssignment, node_id: NodeId
    ) -> RecodeResult:
        return self._recolor(graph, assignment, "join", node_id)

    def on_leave(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
        old_color: Color,
    ) -> RecodeResult:
        return self._recolor(graph, assignment, "leave", node_id)

    def on_move(
        self, graph: DigraphLike, assignment: CodeAssignment, node_id: NodeId
    ) -> RecodeResult:
        return self._recolor(graph, assignment, "move", node_id)

    def on_power_change(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
        *,
        increased: bool,
        old_conflict_neighbors: Set[NodeId],
    ) -> RecodeResult:
        kind = "power_increase" if increased else "power_decrease"
        return self._recolor(graph, assignment, kind, node_id)
