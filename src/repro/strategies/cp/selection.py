"""CP's identifier-ordered color reselection.

Paper section 3: nodes needing new colors each wait until they are "the
highest ... -identity node in its vicinity (defined by itself and nodes
up to 2 hops away from it) that has not yet been assigned a color", then
select "the lowest available color".

Two unassigned nodes outside each other's 2-hop vicinities share no
constraints, so the distributed execution is equivalent to processing
the reselect set sequentially in descending identifier order — which is
what this implementation does.  (The message-driven version lives in
:mod:`repro.distributed.cp_protocol` and is tested equivalent.)

What counts as "taken" for a selecting node is governed by
``vicinity_colors``:

* ``False`` (default) — the colors of the node's *conflict neighbors*
  (CA1 ∪ CA2), i.e. the constraint lists the CP nodes maintain ("respect
  for constraints ensures that no conflicts arise", section 3).  This is
  the variant whose color usage reproduces the paper's Fig 11
  comparison.
* ``True`` — the conservative reading: every color held within 2
  undirected hops.  Strictly safe but wasteful; kept for the robustness
  ablation.

Both variants are safe: conflict neighbors are always within 2
undirected hops.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from itertools import chain

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import conflict_neighbors
from repro.topology.digraph import AdHocDigraph
from repro.topology.neighborhoods import k_hop_neighbors
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = ["reselect_colors"]


def _rows(
    graph: DigraphLike,
    order: Sequence[NodeId],
    vicinity_colors: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The "around" row of every node of ``order``, flattened.

    Returns ``(ids, lengths)``: row ``j`` is the next ``lengths[j]``
    entries of ``ids``.  An :class:`AdHocDigraph` answers the conflict
    rows with one :meth:`AdHocDigraph.conflict_pairs` query; other
    graphs answer through :func:`conflict_neighbors`.  The vicinity
    rows come from :func:`k_hop_neighbors` on every graph.
    """
    if isinstance(graph, AdHocDigraph) and not vicinity_colors:
        slots = np.fromiter(map(graph.slot_of, order), dtype=np.intp, count=len(order))
        rows, cols = graph.conflict_pairs(slots)
        return graph.slot_ids()[cols], np.bincount(rows, minlength=len(order))
    if vicinity_colors:
        sets = [k_hop_neighbors(graph, u, 2) for u in order]
    else:
        sets = [conflict_neighbors(graph, u) for u in order]
    lengths = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(lengths.sum()))
    return ids, lengths


def _lowest_free(colors: np.ndarray) -> Color:
    """The lowest color >= 1 missing from ``colors`` (0 marks no color).

    ``m`` entries leave one of ``1..m+1`` free, so it is the first zero
    of a ``bincount`` at least ``m + 2`` long.
    """
    counts = np.bincount(colors, minlength=len(colors) + 2)
    counts[0] = 1
    return int(counts.argmin())


def reselect_colors(
    graph: DigraphLike,
    assignment: CodeAssignment,
    reselect: Set[NodeId],
    *,
    highest_first: bool = True,
    vicinity_colors: bool = False,
) -> dict[NodeId, Color]:
    """New colors for every node in ``reselect`` under the CP rule.

    All ``reselect`` nodes start uncolored (their old colors place no
    constraints); other nodes keep their current colors.  Each reselect
    node, in descending (default) identifier order, takes the lowest
    color not *taken* around it (see module docstring for the two
    takenness variants).

    A node may land back on its old color — the caller decides whether
    that counts as a recoding (it does not, per the section 5 metric).

    On arrays: the rows of every node are gathered once, and each node
    in turn overlays the reselect nodes on its row with the colors
    chosen so far (0, no constraint, for those still to choose) and
    takes the lowest color its row leaves free (one ``bincount`` over
    the row).  Nothing outside the rows is read.
    """
    order = sorted(reselect, reverse=highest_first)
    k = len(order)
    if not k:
        return {}
    ids, lengths = _rows(graph, order, vicinity_colors)
    colors = assignment.color_array(ids)
    if k == 1:  # no other reselect node sits on the row
        return {order[0]: _lowest_free(colors)}
    # Row entries that are reselect nodes: their old colors place no
    # constraint; they hold what they have chosen so far (0 until then).
    ascending = np.sort(np.asarray(order, dtype=np.int64))
    pos = ascending.searchsorted(ids)
    np.minimum(pos, k - 1, out=pos)
    hits = np.flatnonzero(ascending[pos] == ids)
    hit_pos = pos[hits]
    ends = np.cumsum(lengths).tolist()
    hit_ends = hits.searchsorted(ends).tolist()
    own_pos = ascending.searchsorted(order).tolist()
    chosen = np.zeros(k, dtype=np.int64)
    lo = hit_lo = 0
    for j in range(k):
        hi, hit_hi = ends[j], hit_ends[j]
        if hit_hi > hit_lo:
            colors[hits[hit_lo:hit_hi]] = chosen[hit_pos[hit_lo:hit_hi]]
        chosen[own_pos[j]] = _lowest_free(colors[lo:hi])
        lo, hit_lo = hi, hit_hi
    return dict(zip(order, chosen[own_pos].tolist()))
