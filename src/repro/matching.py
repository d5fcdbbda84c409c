"""Maximum-weight bipartite matching on a dense weight matrix.

``RecodeOnJoin`` / ``RecodeOnMove`` reduce recoding to a maximum-weight
matching between the recoded nodes (rows) and the colors (columns),
treating the matching algorithm "as a black box" (paper Fig 3, step 5).
This module is that black box: a Jonker–Volgenant-style Hungarian
method with dual potentials, O(n^2 m) for ``n`` rows and ``m`` columns,
run by the compiled kernel library (:mod:`repro._native`).

Unmatched rows are allowed: the kernel pads the matrix with ``n``
zero-weight dummy columns so every row can always be "assigned", and
dummy / forbidden assignments are dropped from the result.  Because all
real edge weights are strictly positive, the optimal padded solution
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

__all__ = ["max_weight_matching"]


def max_weight_matching(weights: np.ndarray) -> np.ndarray:
    """Maximum-weight matching of a dense weight matrix.

    Parameters
    ----------
    weights:
        ``(n, m)`` array of finite numbers; entries ``<= 0`` mark
        forbidden pairs, positive entries are edge weights.  A
        non-finite entry or an array that is not 2-D raises
        :class:`MatchingError`.

    Returns
    -------
    int64 array of length ``n``: entry ``i`` is the column matched to
    row ``i``, or ``-1`` if row ``i`` is unmatched.

    Each row insertion is one Dijkstra search over reduced costs.  The
    search keeps *absolute* distances ``dist[j]`` from the inserted row
    and settles the potentials once, when it reaches a free column: a
    column settled at distance ``d`` shifts by ``D - d``, where ``D`` is
    the final distance.  This is the textbook per-step update (every
    step adds its ``delta`` to the settled rows and columns) summed in
    closed form, so every comparison and every potential is the same
    number as in the per-step form.  With integer weights below 2**53
    all of them are exact integers in float64 (Minim's plan checks that
    bound before it solves), hence the search visits the same columns
    in the same order and returns the same matching.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise MatchingError(f"weight matrix must be 2-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise MatchingError("edge weights must be finite")
    n, m = w.shape
    match = np.empty(n, dtype=np.int64)
    rc = _native.library().repro_max_weight(n, m, w.ctypes.data, match.ctypes.data)
    if rc == -2:
        raise MatchingError("augmenting search found no reachable column")
    if rc:
        raise MemoryError(f"matching scratch for a {n}x{m} matrix")
    return match
