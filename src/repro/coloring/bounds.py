"""Lower bounds on the number of codes needed.

Used by tests to contextualize heuristic quality: no
valid assignment can use fewer colors than the largest clique of the
conflict graph.
"""

from __future__ import annotations

import numpy as np

from repro.topology.conflicts import conflict_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.topology.static import DigraphLike
from repro.types import NodeId

__all__ = ["clique_lower_bound", "greedy_clique", "receiver_clique_bound"]


def receiver_clique_bound(graph: DigraphLike) -> int:
    """``max_v (indegree(v) + 1)`` — a structural clique bound.

    The in-neighbors of any receiver ``v`` pairwise conflict (CA2) and
    each conflicts with ``v`` itself (CA1), so ``{v} ∪ in(v)`` is a
    clique in the conflict graph.  Reads the graph's native
    ``in_degrees`` when it has one (:class:`AdHocDigraph` counts them in
    place; this runs on every BBB event); otherwise sums the exported
    adjacency matrix.
    """
    native = getattr(graph, "in_degrees", None)
    degrees = native() if native is not None else graph.adjacency()[1].sum(axis=0)
    if not len(degrees):
        return 0
    return int(degrees.max()) + 1


def greedy_clique(conflicts: np.ndarray, seed: int) -> list[int]:
    """Greedily grow a clique in ``conflicts`` starting from index ``seed``.

    At each step, adds the candidate adjacent to all clique members with
    the most remaining candidates as neighbors (ties: lowest index).
    """
    n = conflicts.shape[0]
    clique = [seed]
    candidates = set(np.flatnonzero(conflicts[seed]).tolist())
    while candidates:
        best = min(
            candidates,
            key=lambda c: (-int(conflicts[c, list(candidates)].sum()), c),
        )
        clique.append(int(best))
        candidates = {c for c in candidates if c != best and conflicts[best, c]}
    return clique


def clique_lower_bound(graph: AdHocDigraph) -> int:
    """Best clique lower bound found by the structural and greedy methods.

    Seeds the greedy extension from the handful of highest conflict-degree
    vertices; combined with :func:`receiver_clique_bound`.
    """
    ids, conflicts = conflict_adjacency(graph)
    n = len(ids)
    if n == 0:
        return 0
    bound = receiver_clique_bound(graph)
    degrees = conflicts.sum(axis=1)
    seeds = np.argsort(-degrees, kind="stable")[: min(8, n)]
    for seed in seeds:
        bound = max(bound, len(greedy_clique(conflicts, int(seed))))
    return bound


def clique_nodes(graph: AdHocDigraph) -> list[NodeId]:
    """A concrete clique witnessing :func:`clique_lower_bound`'s greedy part."""
    ids, conflicts = conflict_adjacency(graph)
    if not ids:
        return []
    degrees = conflicts.sum(axis=1)
    best: list[int] = []
    seeds = np.argsort(-degrees, kind="stable")[: min(8, len(ids))]
    for seed in seeds:
        clique = greedy_clique(conflicts, int(seed))
        if len(clique) > len(best):
            best = clique
    return sorted(ids[i] for i in best)
