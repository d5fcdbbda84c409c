"""``RecodeOnJoin`` / ``RecodeOnMove`` — matching-based local recoding.

Paper Fig 3 / Fig 8.  When node ``n`` joins (or arrives at a new
position), all of ``V1 = 1n ∪ 2n ∪ {n}`` must end up pairwise distinct:
every member of ``1n ∪ 2n`` transmits into ``n`` (CA2 at receiver ``n``)
and each has an edge with ``n`` (CA1).  The algorithm:

1. collect, for each ``u ∈ V1``, the colors forbidden by conflict
   neighbors *outside* ``V1`` (their colors cannot change);
2. let ``max`` be the largest color seen among those constraints and the
   old colors in ``1n ∪ 2n``; set ``V2 = {1..max}``;
3. build the bipartite graph ``V1 × V2`` with an edge ``(u, k)`` when
   ``k`` is not forbidden for ``u`` — weight 3 if ``k`` is ``u``'s old
   color, else weight 1;
4. take a maximum-weight matching; matched nodes adopt their matched
   color, unmatched nodes take fresh colors ``max+1, max+2, …``.

Lemma 4.1.6 guarantees each ``u ∈ 1n ∪ 2n`` keeps its old-color edge, so
the maximum-weight matching preserves one holder per duplicated color
class — recoding exactly ``Σ(K_i − 1)`` members (Theorem 4.1.8,
minimality) while reusing the smallest possible palette (Theorem 4.1.9,
optimality among minimal one-hop strategies).

Tie-breaking.  The paper's matching is any maximum-weight one; for
deterministic, reproducible runs we refine ties lexicographically:
(1) maximum paper weight, (2) maximum cardinality (fewer fresh colors),
(3) lower matched colors, (4) lower-id nodes keep their colors.  Each
level is encoded at a separate magnitude in the integer edge weights, so
the refinement only ever selects *among* maximum-weight matchings and
all paper theorems continue to hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.constraints import forbidden_colors
from repro.errors import MatchingError
from repro.matching import WeightedBipartiteGraph, max_weight_matching
from repro.topology.conflicts import conflict_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.topology.neighborhoods import join_partition
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = [
    "LocalRecodePlan",
    "minimal_join_bound",
    "minimal_move_bound",
    "plan_local_matching_recode",
]

#: Largest integer up to which every float64 integer is exact.
_EXACT_MAX = 2**53
#: Factor by which the matcher's intermediate values may exceed the
#: largest weight (see :func:`check_weights_exact`).
_POTENTIAL_HEADROOM = 4


@dataclass(frozen=True)
class LocalRecodePlan:
    """The outcome of the matching construction.

    Attributes
    ----------
    node:
        The joining / moving node ``n``.
    v1:
        The recoding candidate set ``1n ∪ 2n ∪ {n}``.
    max_color_seen:
        ``max`` of step 3 (size of the color palette ``V2``).
    new_colors:
        Complete new coloring of ``V1`` (including unchanged members).
    changes:
        ``{u: (old, new)}`` restricted to actual changes.
    messages:
        Analytic message count: one request + one reply per in-neighbor
        for constraint collection (steps 1-2), plus one dissemination
        message per recoded neighbor (step 6).
    """

    node: NodeId
    v1: frozenset[NodeId]
    max_color_seen: int
    new_colors: dict[NodeId, Color]
    changes: dict[NodeId, tuple[Color | None, Color]]
    messages: int


def check_weights_exact(n_left: int, palette: int, largest_weight: int) -> None:
    """Raise :class:`MatchingError` unless the matching stays exact in float64.

    The lexicographic weights are integers held in float64; past 2**53
    neighbouring integers merge, the tie-break levels collapse into one
    another and Theorems 4.1.8/4.1.9 no longer follow from the code.

    Headroom.  The matcher forms sums of weights and dual potentials.
    With ``W`` the largest weight and costs ``-w`` in ``[-W, 0]`` (``n``
    zero-cost dummy columns), every potential lies in ``[-W, 0]``
    between row insertions: a free dummy column keeps ``v = 0``, so
    feasibility gives ``u <= 0``, and a matched pair has
    ``u + v = -w >= -W`` with both terms ``<= 0``.  Each search's
    distances lie in ``[-W, 0]`` (a free dummy is reachable at 0) and
    each relaxed value ``cost - u - v + d`` in ``[-2W, 2W]``.  Requiring
    ``4 W <= 2**53`` therefore keeps every intermediate value an exact
    integer with a factor of two to spare.
    """
    if _POTENTIAL_HEADROOM * largest_weight > _EXACT_MAX:
        raise MatchingError(
            f"lexicographic matching weights are not exact in float64 for "
            f"|V1| = {n_left} and a palette of {palette} colors: the largest "
            f"weight {largest_weight} needs {_POTENTIAL_HEADROOM}x headroom "
            f"below 2**53"
        )


def _v1_constraints(
    graph: DigraphLike,
    assignment: CodeAssignment,
    v1_list: list[NodeId],
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-2 for every ``V1`` member at once.

    Returns ``(old, forbidden)``: ``old[i]`` is ``v1_list[i]``'s color (0
    when uncolored) and ``forbidden[i, c]`` marks color ``c`` as held by a
    conflict neighbor of ``v1_list[i]`` outside ``V1``.  ``forbidden``
    has ``max + 1`` columns (column 0 unused), ``max`` being step 3's
    palette bound.  Conflict rows come from one batched query —
    :meth:`AdHocDigraph.conflict_pairs`, or the whole conflict matrix
    for any other graph — and colors from one gather.
    """
    k = len(v1_list)
    if isinstance(graph, AdHocDigraph):
        slots = np.fromiter(map(graph.slot_of, v1_list), dtype=np.intp, count=k)
        in_v1 = np.zeros(len(graph), dtype=bool)
        in_v1[slots] = True
        rows, cols = graph.conflict_pairs(slots)
        outside = ~in_v1[cols]
        rows, cols = rows[outside], cols[outside]
        neighbor_ids = graph.slot_ids()[cols]
    else:
        ids, conflicts = conflict_adjacency(graph)
        index = {v: i for i, v in enumerate(ids)}
        pos = [index[u] for u in v1_list]
        block = conflicts[pos]
        block[:, pos] = False
        rows, cols = np.nonzero(block)
        neighbor_ids = np.asarray(ids, dtype=np.int64)[cols]
    colors = assignment.color_array(neighbor_ids)
    old = assignment.color_array(v1_list)
    palette = int(max(colors.max(initial=0), old.max(initial=0)))
    forbidden = np.zeros((k, palette + 1), dtype=bool)
    forbidden[rows, colors] = True  # uncolored neighbors land in column 0
    return old, forbidden


def _match_v1(
    v1_list: list[NodeId],
    old: np.ndarray,
    forbidden: np.ndarray,
    old_color_weight: int,
    fresh_color_weight: int,
) -> np.ndarray:
    """Steps 3-5 on arrays: the new color of every ``V1`` member.

    Builds the lexicographic weights of the module docstring — for the
    member at position ``pos`` and allowed color ``c``::

        w_paper · k1 + k2 + (max − c) · k3 + (|V1| − pos)

    — and hands them to :func:`max_weight_matching`; unmatched members
    take fresh colors ``max+1, max+2, …`` in ``v1_list`` order.
    """
    if old_color_weight < 1 or fresh_color_weight < 1:
        raise ValueError("weights must be positive integers")
    n_left = len(v1_list)
    m_right = forbidden.shape[1] - 1
    k3 = n_left * n_left + 1  # low-color preference unit
    k2 = n_left * m_right * k3 + n_left * n_left + 1  # cardinality unit
    k1 = (n_left + 1) * k2  # paper-weight unit
    largest = max(old_color_weight, fresh_color_weight) * k1 + k2 + (m_right - 1) * k3 + n_left
    check_weights_exact(n_left, m_right, largest)

    colors = np.arange(1, m_right + 1, dtype=np.int64)
    paper = np.where(colors == old[:, None], old_color_weight, fresh_color_weight)
    weights = paper * k1 + (k2 + (m_right - colors) * k3)
    weights += (n_left - np.arange(n_left, dtype=np.int64))[:, None]
    weights[forbidden[:, 1:]] = 0
    bip = WeightedBipartiteGraph.from_matrix(v1_list, colors.tolist(), weights)
    pairs = max_weight_matching(bip).pairs

    new = np.fromiter((pairs.get(u, 0) for u in v1_list), dtype=np.int64, count=n_left)
    unmatched = new == 0
    new[unmatched] = m_right + 1 + np.arange(int(unmatched.sum()))
    return new


def solve_v1_assignment(
    v1_list: list[NodeId],
    old_colors: dict[NodeId, Color | None],
    constraints: dict[NodeId, set[Color]],
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
) -> tuple[dict[NodeId, Color], int]:
    """Steps 3-5 of Fig 3 on already-collected local data.

    This is the computation node ``n`` performs once constraint
    collection finishes; the distributed runtime calls it directly on
    message payloads, the oracle strategy via
    :func:`plan_local_matching_recode`.

    Returns ``(new_colors, max_color_seen)`` where ``new_colors`` covers
    every ``V1`` member.
    """
    old = np.array([old_colors.get(u) or 0 for u in v1_list], dtype=np.int64)
    forb_lists = [sorted(constraints[u]) for u in v1_list]
    palette = max([int(old.max(initial=0))] + [f[-1] for f in forb_lists if f])
    forbidden = np.zeros((len(v1_list), palette + 1), dtype=bool)
    rows = np.repeat(np.arange(len(v1_list)), [len(f) for f in forb_lists])
    forbidden[rows, [c for f in forb_lists for c in f]] = True
    new = _match_v1(v1_list, old, forbidden, old_color_weight, fresh_color_weight)
    return dict(zip(v1_list, new.tolist())), palette


def plan_local_matching_recode(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
) -> LocalRecodePlan:
    """Plan the matching-based recode for a joined or moved ``node``.

    ``graph`` must already reflect the new topology.  For a join the
    node has no color in ``assignment``; for a move it keeps its old
    color, which (per Fig 8) competes for retention through a weight-3
    edge exactly like every other ``V1`` member.

    ``old_color_weight``/``fresh_color_weight`` parameterize the paper's
    3/1 weights (the weight ablation lowers ``old_color_weight`` to 1).
    """
    part = join_partition(graph, node)
    members = sorted(part.in_neighbors)
    v1_list = members + [node]  # n last: fresh colors end at n (Fig 4)

    # Steps 1-2: constraints from conflict neighbors outside V1, on the
    # *new* topology.  Old colors of V1 members do not constrain each
    # other (they are all being re-decided together).
    old, forbidden = _v1_constraints(graph, assignment, v1_list)
    new = _match_v1(v1_list, old, forbidden, old_color_weight, fresh_color_weight)

    old_list, new_list = old.tolist(), new.tolist()
    changes = {
        v1_list[i]: (old_list[i] or None, new_list[i])
        for i in np.flatnonzero(new != old).tolist()
    }
    messages = 2 * len(members) + len(changes) - (node in changes)
    return LocalRecodePlan(
        node=node,
        v1=frozenset(v1_list),
        max_color_seen=forbidden.shape[1] - 1,
        new_colors=dict(zip(v1_list, new_list)),
        changes=changes,
        messages=messages,
    )


def minimal_join_bound(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
) -> int:
    """Lemma 4.1.1 bound: ``Σ(K_i − 1)`` member recodes plus 1 for ``n``.

    ``{K_i}`` are the multiplicities of the old colors in ``1n ∪ 2n``.
    Call with the joined topology but before applying any changes.
    """
    part = join_partition(graph, node)
    classes: dict[Color, int] = {}
    for u in part.in_neighbors:
        c = assignment[u]
        classes[c] = classes.get(c, 0) + 1
    member_recodes = sum(k - 1 for k in classes.values())
    return member_recodes + 1


def minimal_move_bound(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
) -> int:
    """The move analogue of Lemma 4.1.1 (Theorem 4.4.4).

    With the mover ``n`` holding an old color, ``V1``'s duplicated color
    classes force ``Σ(K_i − 1)`` recodes; additionally ``n`` itself must
    recode when its old color is *externally* forbidden at the new
    position even though no ``V1`` member shares it (members' old colors
    are never externally forbidden, by the Lemma 4.1.6 argument).
    Call with the moved topology, before applying changes.
    """
    part = join_partition(graph, node)
    v1_set = frozenset(part.v1)
    classes: dict[Color, int] = {}
    for u in sorted(v1_set):
        classes[assignment[u]] = classes.get(assignment[u], 0) + 1
    base = sum(k - 1 for k in classes.values())
    own = assignment[node]
    if classes[own] == 1 and own in forbidden_colors(graph, assignment, node, exclude=v1_set):
        base += 1
    return base
