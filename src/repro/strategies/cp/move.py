"""CP move recoding: a leave followed by a join (paper sections 3, 4.4).

"The CP strategy for handling recoding on node movement is to treat it
as a pair of consecutive events where the moving node n leaves and joins
the network."  The leave recodes nobody; the join then runs with ``n``
uncolored, so ``n`` always re-selects — the reason CP pays at least one
(potential) recode per move while ``RecodeOnMove`` usually pays none.
"""

from __future__ import annotations

from repro.coloring.assignment import CodeAssignment
from repro.strategies.cp.join import CPPlan, plan_cp_local
from repro.topology.static import DigraphLike
from repro.types import NodeId

__all__ = ["plan_cp_move"]


def plan_cp_move(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    highest_first: bool = True,
    vicinity_colors: bool = False,
) -> CPPlan:
    """Plan the CP recode for moved ``node`` (already relocated).

    ``assignment`` still holds the mover's pre-move color.  The plan
    runs on it as it is: the mover is in its own reselect set, so that
    color places no constraint (the join phase sees ``node``
    uncolored), and the mover's re-selected color counts as a recoding
    only if it differs from the pre-move color.  The re-joined mover
    announces its selection either way, so its announce messages
    always count.
    """
    return plan_cp_local(
        graph,
        assignment,
        node,
        highest_first=highest_first,
        vicinity_colors=vicinity_colors,
        node_announces=True,
    )
