"""SciPy ``linear_sum_assignment`` matching.

An independent oracle for the tests.  SciPy is a test-extra
dependency; importing this module without SciPy installed raises
``ImportError`` at call time, not at package import.
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph

__all__ = ["scipy_matching"]


def scipy_matching(graph: WeightedBipartiteGraph) -> MatchingResult:
    """Maximum-weight matching via ``scipy.optimize.linear_sum_assignment``.

    Pads the weight matrix with zero-weight dummy columns so left
    vertices may stay unmatched, then drops dummy/zero assignments —
    mirroring the padding argument in :mod:`repro.matching.hungarian`.
    """
    from scipy.optimize import linear_sum_assignment

    w = graph.weight_matrix()
    n, m = w.shape
    if n == 0 or m == 0 or not (w > 0).any():
        return MatchingResult(pairs={}, total_weight=0.0)
    padded = np.zeros((n, m + n), dtype=np.float64)
    padded[:, :m] = w
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs = {}
    total = 0.0
    for i, j in zip(rows, cols):
        if j < m and w[i, j] > 0:
            pairs[graph.left[int(i)]] = graph.right[int(j)]
            total += float(w[i, j])
    return MatchingResult(pairs=pairs, total_weight=total)
