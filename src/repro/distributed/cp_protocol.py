"""Message-driven CP recoding: synchronous local-maximum election rounds.

Paper section 3: each node needing a color "continuously check[s] if it
is the highest ... -identity node in its vicinity (defined by itself and
nodes up to 2 hops away from it) that has not yet been assigned a
color", then takes the lowest available color.

We execute this as synchronous rounds: every uncolored node announces
itself, the local maxima select simultaneously (two simultaneous
selectors are never within each other's 2-hop vicinity, hence share no
constraints), and announce their choices.  Tests assert the outcome is
identical to the sequential descending-id oracle
(:func:`repro.strategies.cp.selection.reselect_colors`).

Message accounting is per-neighbor unicast (one message per undirected
neighbor per announcement), matching the convention of the oracle
strategies' analytic estimates.
"""

from __future__ import annotations

from repro.coloring.assignment import CodeAssignment
from repro.coloring.constraints import lowest_available_color
from repro.distributed.runtime import ProtocolStats
from repro.errors import ProtocolError
from repro.strategies.cp.join import duplicated_members, undirected_degree
from repro.topology.conflicts import conflict_neighbors
from repro.topology.neighborhoods import join_partition, k_hop_neighbors
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = ["run_distributed_cp_join"]

_MAX_ROUNDS = 10_000


def run_distributed_cp_join(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    vicinity_colors: bool = False,
) -> ProtocolStats:
    """Execute the CP join recoding for ``node`` as election rounds.

    Same contract as :func:`repro.strategies.cp.plan_cp_join`: ``graph``
    already contains ``node``; ``assignment`` holds every other node's
    color; nothing is mutated.
    """
    part = join_partition(graph, node)
    members = part.in_neighbors | part.out_neighbors
    reselect = duplicated_members(assignment, members) | {node}

    # Initial exchange: the joiner trades state with each 1-hop neighbor.
    messages = 2 * undirected_degree(graph, node)

    uncolored = set(reselect)
    vicinities = {u: k_hop_neighbors(graph, u, 2) for u in reselect}
    new_colors: dict[NodeId, Color] = {}
    rounds = 0

    while uncolored:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ProtocolError("CP election failed to make progress")
        # Uncolored nodes announce themselves to their neighborhoods.
        messages += sum(undirected_degree(graph, u) for u in uncolored)
        # Local maxima: u selects iff no higher-id uncolored node sits in
        # its 2-hop vicinity.
        selectors = [
            u
            for u in uncolored
            if all(v < u for v in vicinities[u] if v in uncolored)
        ]
        if not selectors:
            raise ProtocolError("CP election deadlocked (no local maxima)")
        for u in selectors:
            if vicinity_colors:
                around = vicinities[u]
            else:
                around = conflict_neighbors(graph, u)
            # Reselect nodes hold what they have chosen so far; the
            # rest keep their current colors.
            taken = {new_colors.get(v) if v in reselect else assignment.get(v) for v in around}
            color = lowest_available_color(taken - {None})
            new_colors[u] = color
            messages += undirected_degree(graph, u)  # color announcement
        uncolored.difference_update(selectors)

    changes = {
        u: (assignment.get(u), c)
        for u, c in new_colors.items()
        if assignment.get(u) != c
    }
    return ProtocolStats(messages=messages, rounds=rounds, changes=changes)
