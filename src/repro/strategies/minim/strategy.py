"""The ``Minim`` strategy facade (paper section 4).

Dispatches each event type to its minimal recoding algorithm:

* join → ``RecodeOnJoin`` (matching, Fig 3),
* move → ``RecodeOnMove`` (same construction at the new position, Fig 8),
* power increase → ``RecodeOnPowIncrease`` (Fig 5),
* power decrease / leave → ``RecodeDecreasePowOrLeave`` (no recoding).
"""

from __future__ import annotations

from collections.abc import Set

from repro.coloring.assignment import CodeAssignment
from repro.strategies.base import RecodeResult, RecodingStrategy
from repro.strategies.minim.join import plan_local_matching_recode
from repro.strategies.minim.power import plan_power_increase
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = ["MinimStrategy"]


class MinimStrategy(RecodingStrategy):
    """The paper's minimal recoding strategy family.

    Parameters
    ----------
    old_color_weight, fresh_color_weight:
        Matching edge weights (paper: 3 and 1).  Exposed for the weight
        ablation bench; production uses the defaults.
    """

    name = "Minim"

    def __init__(
        self,
        *,
        old_color_weight: int = 3,
        fresh_color_weight: int = 1,
    ) -> None:
        self._w_old = old_color_weight
        self._w_fresh = fresh_color_weight

    def on_join(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
    ) -> RecodeResult:
        plan = plan_local_matching_recode(
            graph,
            assignment,
            node_id,
            old_color_weight=self._w_old,
            fresh_color_weight=self._w_fresh,
        )
        return RecodeResult("join", node_id, plan.changes, messages=plan.messages)

    def on_leave(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
        old_color: Color,
    ) -> RecodeResult:
        # RecodeDecreasePowOrLeave: a leave removes constraints only.
        return RecodeResult("leave", node_id, {}, messages=0)

    def on_move(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
    ) -> RecodeResult:
        plan = plan_local_matching_recode(
            graph,
            assignment,
            node_id,
            old_color_weight=self._w_old,
            fresh_color_weight=self._w_fresh,
        )
        return RecodeResult("move", node_id, plan.changes, messages=plan.messages)

    def on_power_change(
        self,
        graph: DigraphLike,
        assignment: CodeAssignment,
        node_id: NodeId,
        *,
        increased: bool,
        old_conflict_neighbors: Set[NodeId],
    ) -> RecodeResult:
        if not increased:
            # RecodeDecreasePowOrLeave: a decrease removes constraints only.
            return RecodeResult("power_decrease", node_id, {}, messages=0)
        plan = plan_power_increase(graph, assignment, node_id)
        return RecodeResult("power_increase", node_id, plan.changes, messages=plan.messages)
