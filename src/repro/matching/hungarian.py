"""Maximum-weight bipartite matching via shortest augmenting paths.

This is a from-scratch Jonker–Volgenant-style implementation of the
Hungarian method on a dense cost matrix with dual potentials, O(n^2 m)
for ``n`` left and ``m`` right vertices.

Unmatched vertices are allowed: the cost matrix is padded with ``n``
zero-weight dummy columns so every left vertex can always be "assigned",
and dummy / forbidden assignments are dropped from the result.  Because
all real edge weights are strictly positive, the optimal padded solution
restricted to real edges is exactly the maximum-weight matching.

Ties.  The maximum-weight matching is not always unique, and which one
the solver returns depends on its path: rows are inserted in order, the
Dijkstra search scans columns in index order and picks the *first*
column of minimum distance.  Recoding series depend on that choice, so
the path is part of the solver's contract (see
``docs/architecture/strategies.md``).
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph

__all__ = ["hungarian_matching", "solve_max_weight_dense"]

_INF = np.inf


def solve_max_weight_dense(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight matching of a dense weight matrix.

    Parameters
    ----------
    weights:
        ``(n, m)`` array; entries ``<= 0`` mark forbidden pairs, positive
        entries are edge weights.

    Returns
    -------
    list of ``(row, col)`` matched index pairs (rows ascending).

    Each row insertion is one Dijkstra search over reduced costs.  The
    search keeps *absolute* distances ``dist[j]`` from the inserted row
    and settles the potentials once, when it reaches a free column:
    a column settled at distance ``d`` shifts by ``D - d``, where ``D``
    is the final distance.  This is the textbook per-step update
    (every step adds its ``delta`` to the settled rows and columns)
    summed in closed form, so every comparison and every potential is
    the same number as in the per-step form.  With integer weights
    below 2**53 all of them are exact integers in float64 (Minim's plan
    checks that bound before it solves), hence the search visits the
    same columns in the same order and returns the same pairs.
    """
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    if n == 0 or m == 0 or not (w > 0).any():
        return []

    # Min-cost square-free formulation: cost = -weight for allowed pairs,
    # 0 for forbidden pairs and for the n dummy columns.  Minimizing cost
    # over row-perfect assignments maximizes matched weight; dummy and
    # forbidden picks cost 0 i.e. "leave unmatched".  Column 0 is the
    # search root (the inserted row's virtual column), real columns are
    # 1..m and dummies m+1..m+n; the root column is never free.
    m_tot = m + n
    cost = np.zeros((n + 1, m_tot + 1), dtype=np.float64)
    np.negative(w, out=cost[1:, 1 : m + 1], where=w > 0)

    u = np.zeros(n + 1, dtype=np.float64)
    v = np.zeros(m_tot + 1, dtype=np.float64)
    p = np.zeros(m_tot + 1, dtype=np.int64)  # p[j] = row matched to column j (0 = none)
    way = np.zeros(m_tot + 1, dtype=np.int64)
    cur = np.empty(m_tot + 1, dtype=np.float64)
    better = np.empty(m_tot + 1, dtype=bool)
    dist = np.empty(m_tot + 1, dtype=np.float64)
    vs = np.empty(m_tot + 1, dtype=np.float64)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        d0 = 0.0
        settled = [(0, 0.0)]  # (column, distance at which it was settled)
        # dist: tentative distance of unsettled columns, +inf once settled.
        dist.fill(_INF)
        # v with settled columns at -inf, so cost - vs is +inf there and
        # settled columns never relax.
        np.copyto(vs, v)
        vs[0] = -_INF
        while True:
            i0 = p[j0]
            np.subtract(cost[i0], vs, out=cur)
            cur += d0 - u[i0]
            np.less(cur, dist, out=better)
            np.copyto(way, j0, where=better)
            np.minimum(dist, cur, out=dist)
            j0 = int(dist.argmin())  # first minimum: column order breaks ties
            d0 = float(dist[j0])
            dist[j0] = _INF
            vs[j0] = -_INF
            settled.append((j0, d0))
            if p[j0] == 0:
                break
        # Settle the potentials of this search in one pass.
        for j, d in settled:
            u[p[j]] += d0 - d
            v[j] -= d0 - d
        # Unwind the augmenting path.
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    matched = np.flatnonzero(p[1 : m + 1]) + 1  # dummy columns j > m are ignored
    rows = p[matched] - 1
    keep = w[rows, matched - 1] > 0
    order = np.argsort(rows[keep], kind="stable")
    return list(zip(rows[keep][order].tolist(), (matched[keep][order] - 1).tolist()))


def hungarian_matching(graph: WeightedBipartiteGraph) -> MatchingResult:
    """Maximum-weight matching of ``graph`` (see module docstring)."""
    w = graph.weight_matrix()
    pairs_idx = solve_max_weight_dense(w)
    pairs = {graph.left[i]: graph.right[j] for i, j in pairs_idx}
    total = float(sum(w[i, j] for i, j in pairs_idx))
    return MatchingResult(pairs=pairs, total_weight=total)
