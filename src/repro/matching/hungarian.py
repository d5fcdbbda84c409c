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

from repro import _native
from repro.errors import MatchingError
from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph

__all__ = ["hungarian_matching", "solve_max_weight_dense"]


def solve_max_weight_dense(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight matching of a dense weight matrix.

    Parameters
    ----------
    weights:
        ``(n, m)`` array of finite numbers; entries ``<= 0`` mark
        forbidden pairs, positive entries are edge weights.  A
        non-finite entry raises :class:`MatchingError`.

    Returns
    -------
    list of ``(row, col)`` matched index pairs (rows ascending).

    The search runs in the compiled kernel library
    (:mod:`repro._native`).  Each row insertion is one Dijkstra search
    over reduced costs.  The search keeps *absolute* distances
    ``dist[j]`` from the inserted row and settles the potentials once,
    when it reaches a free column: a column settled at distance ``d``
    shifts by ``D - d``, where ``D`` is the final distance.  This is the
    textbook per-step update (every step adds its ``delta`` to the
    settled rows and columns) summed in closed form, so every
    comparison and every potential is the same number as in the
    per-step form.  With integer weights below 2**53 all of them are
    exact integers in float64 (Minim's plan checks that bound before it
    solves), hence the search visits the same columns in the same order
    and returns the same pairs.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n, m = w.shape
    if not np.isfinite(w).all():
        raise MatchingError("edge weights must be finite")
    match = np.empty(n, dtype=np.int64)
    rc = _native.library().repro_max_weight(n, m, w.ctypes.data, match.ctypes.data)
    if rc == -2:
        raise MatchingError("augmenting search found no reachable column")
    if rc:
        raise MemoryError(f"matching scratch for a {n}x{m} matrix")
    return [(i, j) for i, j in enumerate(match.tolist()) if j >= 0]


def hungarian_matching(graph: WeightedBipartiteGraph) -> MatchingResult:
    """Maximum-weight matching of ``graph`` (see module docstring)."""
    w = graph.weight_matrix()
    pairs_idx = solve_max_weight_dense(w)
    pairs = {graph.left[i]: graph.right[j] for i, j in pairs_idx}
    total = float(sum(w[i, j] for i, j in pairs_idx))
    return MatchingResult(pairs=pairs, total_weight=total)
