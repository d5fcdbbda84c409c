"""Reference implementations of the Minim matching plan.

These are the per-member loops the array plan in
``repro.strategies.minim.join`` replaced, kept only as oracles: the
production plan must return exactly what these return.  The maximum-
weight matching is not always unique (two recoded members can swap
fresh colors at equal weight), so equality here pins the solver's tie
path as well as the optimum.

- :func:`jv_oracle` — the Jonker–Volgenant search with the potentials
  updated on every Dijkstra step;
- :func:`solve_v1_oracle` — the weight construction edge by edge through
  ``WeightedBipartiteGraph.add_edge``;
- :func:`plan_oracle` — constraint collection with one
  ``forbidden_colors`` call per ``V1`` member.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.constraints import forbidden_colors
from repro.matching import WeightedBipartiteGraph
from repro.strategies.minim.join import LocalRecodePlan
from repro.topology.neighborhoods import join_partition
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId


def jv_oracle(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight matching, potentials updated on every step."""
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    if n == 0 or m == 0 or not (w > 0).any():
        return []
    cost = np.zeros((n, m + n), dtype=np.float64)
    cost[:, :m] = np.where(w > 0, -w, 0.0)

    m_tot = m + n
    u = np.zeros(n + 1, dtype=np.float64)
    v = np.zeros(m_tot + 1, dtype=np.float64)
    p = np.zeros(m_tot + 1, dtype=np.int64)
    way = np.zeros(m_tot + 1, dtype=np.int64)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m_tot + 1, np.inf, dtype=np.float64)
        used = np.zeros(m_tot + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cols = np.flatnonzero(~used[1:]) + 1
            cur = cost[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = cur < minv[cols]
            upd = cols[better]
            minv[upd] = cur[better]
            way[upd] = j0
            j1 = cols[np.argmin(minv[cols])]
            delta = minv[j1]
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[cols] -= delta
            j0 = int(j1)
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    pairs: list[tuple[int, int]] = []
    for j in range(1, m + 1):
        i = int(p[j])
        if i != 0 and w[i - 1, j - 1] > 0:
            pairs.append((i - 1, j - 1))
    pairs.sort()
    return pairs


def solve_v1_oracle(
    v1_list: list[NodeId],
    old_colors: dict[NodeId, Color | None],
    constraints: dict[NodeId, set[Color]],
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
) -> tuple[dict[NodeId, Color], int]:
    """Steps 3-5 of Fig 3, one ``add_edge`` per allowed (member, color)."""
    max_seen = 0
    for u in v1_list:
        old = old_colors.get(u)
        if old is not None:
            max_seen = max(max_seen, old)
        if constraints[u]:
            max_seen = max(max_seen, max(constraints[u]))

    n_left = len(v1_list)
    m_right = max_seen
    k3 = n_left * n_left + 1
    k2 = n_left * m_right * k3 + n_left * n_left + 1
    k1 = (n_left + 1) * k2
    bip = WeightedBipartiteGraph(left=list(v1_list), right=list(range(1, m_right + 1)))
    for pos, u in enumerate(v1_list):
        old = old_colors.get(u)
        for k in range(1, m_right + 1):
            if k in constraints[u]:
                continue
            w = old_color_weight if k == old else fresh_color_weight
            bip.add_edge(u, k, w * k1 + k2 + (m_right - k) * k3 + (n_left - pos))

    pairs = {bip.left[i]: bip.right[j] for i, j in jv_oracle(bip.weight_matrix())}
    new_colors: dict[NodeId, Color] = {}
    next_fresh = max_seen + 1
    for u in v1_list:
        matched = pairs.get(u)
        if matched is None:
            new_colors[u] = next_fresh
            next_fresh += 1
        else:
            new_colors[u] = matched
    return new_colors, max_seen


def plan_oracle(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
) -> LocalRecodePlan:
    """The recode plan with per-member constraint collection."""
    part = join_partition(graph, node)
    members = sorted(part.in_neighbors)
    v1_list = members + [node]
    v1_set = frozenset(v1_list)
    constraints = {u: forbidden_colors(graph, assignment, u, exclude=v1_set) for u in v1_list}
    old_colors = {u: assignment.get(u) for u in v1_list}
    new_colors, max_seen = solve_v1_oracle(
        v1_list,
        old_colors,
        constraints,
        old_color_weight=old_color_weight,
        fresh_color_weight=fresh_color_weight,
    )
    changes = {u: (assignment.get(u), c) for u, c in new_colors.items() if assignment.get(u) != c}
    messages = 2 * len(members) + sum(1 for u in changes if u != node)
    return LocalRecodePlan(
        node=node,
        v1=v1_set,
        max_color_seen=max_seen,
        new_colors=new_colors,
        changes=changes,
        messages=messages,
    )
