"""Matching substrate: weighted bipartite matching.

``RecodeOnJoin`` / ``RecodeOnMove`` reduce recoding to a maximum-weight
matching on a bipartite graph between nodes and colors (paper Fig 3,
step 5, treating the matching algorithm "as a black box").  This package
is that black box, implemented from scratch:

* :class:`~repro.matching.bipartite.WeightedBipartiteGraph` — the graph
  model (positive edge weights; absent edges are forbidden).
* :func:`~repro.matching.hungarian.hungarian_matching` — maximum-weight
  (not necessarily perfect) matching via shortest augmenting paths with
  potentials, O(n^2 m).
* :func:`~repro.matching.hopcroft_karp.hopcroft_karp_matching` —
  maximum-cardinality matching (used by tests and ablations).
* :mod:`~repro.matching.scipy_backend` — SciPy
  ``linear_sum_assignment`` matching, used by tests as an independent
  oracle.
"""

from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph
from repro.matching.hopcroft_karp import hopcroft_karp_matching
from repro.matching.hungarian import hungarian_matching

__all__ = [
    "MatchingResult",
    "WeightedBipartiteGraph",
    "hopcroft_karp_matching",
    "hungarian_matching",
    "max_weight_matching",
]


def max_weight_matching(graph: WeightedBipartiteGraph) -> MatchingResult:
    """Maximum-weight matching of ``graph`` (the Hungarian solver)."""
    return hungarian_matching(graph)
