"""Weighted bipartite graph model for the matching layer."""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from repro.errors import MatchingError

__all__ = ["WeightedBipartiteGraph", "MatchingResult"]

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


@dataclass
class WeightedBipartiteGraph:
    """Bipartite graph with strictly positive edge weights.

    Left vertices are matching *subjects* (nodes to recode), right
    vertices are *resources* (colors).  Absent edges are forbidden pairs.
    Vertex order is preserved; it determines deterministic tie-breaking
    in the solvers.

    Edges are kept in a dict, or — for a graph built by
    :meth:`from_matrix` — as the dense matrix itself, which the solvers
    read directly.  The dense form folds into the dict on first use of
    an edge-level method.
    """

    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    _weights: dict[tuple, float] = field(default_factory=dict)
    _left_index: dict = field(default_factory=dict)
    _right_index: dict = field(default_factory=dict)
    _matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._left_index = {v: i for i, v in enumerate(self.left)}
        self._right_index = {v: i for i, v in enumerate(self.right)}
        if len(self._left_index) != len(self.left):
            raise MatchingError("duplicate left vertices")
        if len(self._right_index) != len(self.right):
            raise MatchingError("duplicate right vertices")

    @classmethod
    def from_matrix(cls, left: list, right: list, weights: np.ndarray) -> "WeightedBipartiteGraph":
        """The graph whose edges are the positive entries of ``weights``.

        ``weights`` is a ``(len(left), len(right))`` array of finite,
        non-negative numbers; zero marks a forbidden pair.  The array is
        used as is (not copied).
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(left), len(right)):
            raise MatchingError(f"weight matrix shape {w.shape} != ({len(left)}, {len(right)})")
        if not np.isfinite(w).all():
            raise MatchingError("edge weights must be finite")
        if (w < 0).any():
            raise MatchingError("edge weights must be positive (0 marks a forbidden pair)")
        graph = cls(left=list(left), right=list(right))
        graph._matrix = w
        return graph

    def _edges(self) -> dict[tuple, float]:
        """The edge dict, folding in the dense matrix of :meth:`from_matrix`."""
        if self._matrix is not None:
            rows, cols = np.nonzero(self._matrix)
            for i, j, w in zip(rows.tolist(), cols.tolist(), self._matrix[rows, cols].tolist()):
                self._weights[(self.left[i], self.right[j])] = w
            self._matrix = None
        return self._weights

    # ------------------------------------------------------------------
    def add_left(self, vertex) -> None:
        """Append a left vertex."""
        if vertex in self._left_index:
            raise MatchingError(f"duplicate left vertex {vertex!r}")
        self._edges()
        self._left_index[vertex] = len(self.left)
        self.left.append(vertex)

    def add_right(self, vertex) -> None:
        """Append a right vertex."""
        if vertex in self._right_index:
            raise MatchingError(f"duplicate right vertex {vertex!r}")
        self._edges()
        self._right_index[vertex] = len(self.right)
        self.right.append(vertex)

    def add_edge(self, left, right, weight: float) -> None:
        """Add edge ``left -- right`` with a strictly positive, finite weight."""
        if not np.isfinite(weight):
            raise MatchingError(f"edge weight must be finite, got {weight}")
        if weight <= 0:
            raise MatchingError(f"edge weight must be positive, got {weight}")
        if left not in self._left_index:
            raise MatchingError(f"unknown left vertex {left!r}")
        if right not in self._right_index:
            raise MatchingError(f"unknown right vertex {right!r}")
        self._edges()[(left, right)] = float(weight)

    def weight(self, left, right) -> float | None:
        """Weight of the edge, or ``None`` if absent."""
        return self._edges().get((left, right))

    def has_edge(self, left, right) -> bool:
        """Whether the (allowed) edge exists."""
        return (left, right) in self._edges()

    def edges(self) -> Iterable[tuple]:
        """All ``(left, right, weight)`` triples (insertion order)."""
        return [(l, r, w) for (l, r), w in self._edges().items()]

    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges())

    def weight_matrix(self) -> np.ndarray:
        """Dense ``(|left|, |right|)`` weight matrix; 0 marks forbidden."""
        if self._matrix is not None:
            return self._matrix.copy()
        mat = np.zeros((len(self.left), len(self.right)), dtype=np.float64)
        for (l, r), w in self._weights.items():
            mat[self._left_index[l], self._right_index[r]] = w
        return mat


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of a matching computation.

    Attributes
    ----------
    pairs:
        ``left -> right`` for every matched left vertex.
    total_weight:
        Sum of the matched edge weights.
    """

    pairs: dict
    total_weight: float

    @property
    def cardinality(self) -> int:
        """Number of matched pairs."""
        return len(self.pairs)

    def validate_against(self, graph: WeightedBipartiteGraph) -> None:
        """Raise :class:`MatchingError` unless this is a matching of ``graph``.

        Checks edge existence, left-uniqueness (implied by dict) and
        right-uniqueness, and that ``total_weight`` is consistent.
        """
        used_right = set()
        weight = 0.0
        for l, r in self.pairs.items():
            w = graph.weight(l, r)
            if w is None:
                raise MatchingError(f"matched pair ({l!r}, {r!r}) is not an edge")
            if r in used_right:
                raise MatchingError(f"right vertex {r!r} matched twice")
            used_right.add(r)
            weight += w
        if abs(weight - self.total_weight) > 1e-9:
            raise MatchingError(
                f"total_weight {self.total_weight} inconsistent with edges ({weight})"
            )
