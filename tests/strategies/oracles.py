"""Reference implementations of the Minim and CP plans.

These are the per-member loops the array plans in
``repro.strategies.minim.join`` and ``repro.strategies.cp`` replaced,
kept only as oracles: the production plans must return exactly what
these return.  The maximum-
weight matching is not always unique (two recoded members can swap
fresh colors at equal weight), so equality here pins the solver's tie
path as well as the optimum.

- :func:`jv_oracle` — the Jonker–Volgenant search with the potentials
  updated on every Dijkstra step;
- :func:`solve_v1_oracle` — the weight construction one (member, color)
  entry at a time;
- :func:`plan_oracle` — constraint collection with one
  ``forbidden_colors`` call per ``V1`` member;
- :func:`duplicated_members_oracle`, :func:`reselect_colors_oracle` and
  :func:`cp_join_oracle` / :func:`cp_move_oracle` /
  :func:`cp_power_increase_oracle` — CP with color classes in a dict, a
  ``working`` copy of the whole assignment per event, and a copy of the
  assignment with the mover unassigned per move.
"""

from __future__ import annotations

from collections.abc import Set

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.constraints import forbidden_colors, lowest_available_color
from repro.strategies.cp.join import CPPlan
from repro.strategies.minim.join import LocalRecodePlan
from repro.topology.conflicts import conflict_neighbors
from repro.topology.neighborhoods import join_partition, k_hop_neighbors
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
    """Steps 3-5 of Fig 3, one weight entry per allowed (member, color)."""
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
    weights = np.zeros((n_left, m_right), dtype=np.float64)
    for pos, u in enumerate(v1_list):
        old = old_colors.get(u)
        for k in range(1, m_right + 1):
            if k in constraints[u]:
                continue
            w = old_color_weight if k == old else fresh_color_weight
            weights[pos, k - 1] = w * k1 + k2 + (m_right - k) * k3 + (n_left - pos)

    pairs = {v1_list[i]: j + 1 for i, j in jv_oracle(weights)}
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


def duplicated_members_oracle(
    assignment: CodeAssignment, members: frozenset[NodeId]
) -> set[NodeId]:
    """Members sharing their color with another member, classes in a dict."""
    classes: dict[Color, list[NodeId]] = {}
    for u in members:
        color = assignment.get(u)
        if color is not None:
            classes.setdefault(color, []).append(u)
    return {u for nodes in classes.values() if len(nodes) > 1 for u in nodes}


def reselect_colors_oracle(
    graph: DigraphLike,
    assignment: CodeAssignment,
    reselect: Set[NodeId],
    *,
    highest_first: bool = True,
    vicinity_colors: bool = False,
) -> dict[NodeId, Color]:
    """The CP selection over a ``working`` copy of every other node's color."""
    working: dict[NodeId, Color] = {v: c for v, c in assignment.items() if v not in reselect}
    out: dict[NodeId, Color] = {}
    for u in sorted(reselect, reverse=highest_first):
        if vicinity_colors:
            around = k_hop_neighbors(graph, u, 2)
        else:
            around = conflict_neighbors(graph, u)
        color = lowest_available_color({working[v] for v in around if v in working})
        working[u] = color
        out[u] = color
    return out


def _degree(graph: DigraphLike, u: NodeId) -> int:
    return len(set(graph.in_neighbors(u)) | set(graph.out_neighbors(u)))


def _cp_plan(graph, assignment, node, reselect, **options) -> CPPlan:
    new_colors = reselect_colors_oracle(graph, assignment, reselect, **options)
    changes = {u: (assignment.get(u), c) for u, c in new_colors.items() if assignment.get(u) != c}
    messages = 2 * _degree(graph, node) + sum(_degree(graph, u) for u in changes)
    return CPPlan(node, frozenset(reselect), new_colors, changes, messages)


def cp_join_oracle(
    graph: DigraphLike, assignment: CodeAssignment, node: NodeId, **options
) -> CPPlan:
    """CP join: reselect ``node`` and every duplicated member around it."""
    part = join_partition(graph, node)
    members = part.in_neighbors | part.out_neighbors
    reselect = duplicated_members_oracle(assignment, members) | {node}
    return _cp_plan(graph, assignment, node, reselect, **options)


def cp_move_oracle(
    graph: DigraphLike, assignment: CodeAssignment, node: NodeId, **options
) -> CPPlan:
    """CP move: a join on a copy with the mover unassigned, changes re-diffed."""
    as_left = assignment.copy()
    as_left.unassign(node)
    plan = cp_join_oracle(graph, as_left, node, **options)
    changes = {
        u: (assignment.get(u), c)
        for u, c in plan.new_colors.items()
        if assignment.get(u) != c
    }
    return CPPlan(node, plan.reselect, plan.new_colors, changes, plan.messages)


def cp_power_increase_oracle(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    old_conflict_neighbors: Set[NodeId],
    **options,
) -> CPPlan:
    """CP power increase: reselect the same-colored gained conflicts and ``node``."""
    own = assignment[node]
    gained = conflict_neighbors(graph, node) - set(old_conflict_neighbors)
    reselect = {w for w in gained if assignment.get(w) == own} | {node}
    return _cp_plan(graph, assignment, node, reselect, **options)
