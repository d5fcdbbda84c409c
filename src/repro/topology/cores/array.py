"""The array conflict core: adjacency and CA2 witnesses in dense blocks.

The slot-level conflict core behind
:class:`~repro.topology.digraph.AdHocDigraph`.  Its blocks cost
5 B × cap², so the graph caps the population below ``MAX_NODES``
(4096 nodes, 80 MiB of blocks), far above every registered scenario.

* The adjacency and the CA2 witness counters
  ``C2[u, v] = |out(u) ∩ out(v)|`` live in ``(cap, cap)`` blocks with
  amortized-doubling capacity, so a join costs O(N), not O(N²).
* Each join/move recomputes the slot's out- and in-edges from **one**
  pairwise distance pass over every live slot
  (:func:`repro.topology.propagation.pairwise_masks`).
* The CA1/CA2 update is a delta: the compiled kernels
  ``repro_c2_row`` and ``repro_c2_col`` (:mod:`repro._native`) adjust
  the counters only for the pairs that touch a changed edge, walking
  the blocks row by row.
* Removal keeps the live block contiguous: the last slot is renamed
  into the vacated one, and trailing rows are always zero.

Forks share the blocks copy-on-write: the first mutation on either
sibling copies them, so read-only forks (stored checkpoints) never pay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import _native
from repro.topology.propagation import pairwise_masks

if TYPE_CHECKING:  # pragma: no cover - the graph passes itself in
    from repro.topology.digraph import AdHocDigraph

__all__ = ["ArrayCore"]

_MIN_CAPACITY = 16

_IOTA = np.arange(256, dtype=np.intp)


def _iota(k: int) -> np.ndarray:
    """A shared ``arange(k)`` view (grown on demand) for diagonal writes."""
    global _IOTA
    if k > len(_IOTA):
        _IOTA = np.arange(2 * k, dtype=np.intp)
    return _IOTA[:k]


def _capacity(n: int, cap: int = _MIN_CAPACITY) -> int:
    while cap < n:
        cap *= 2
    return cap


class ArrayCore:
    """Dense-block adjacency and CA2 witness counters of the live slots."""

    def __init__(self, cap: int = _MIN_CAPACITY) -> None:
        self.adj = np.zeros((cap, cap), dtype=bool)
        self.c2 = np.zeros((cap, cap), dtype=np.int32)
        self.n = 0
        self._shared = False

    # -- storage --------------------------------------------------------
    def resize(self, n: int) -> None:
        """Hold ``n`` live slots (grows the blocks; trailing rows are zero)."""
        cap = len(self.adj)
        if n > cap:
            cap = _capacity(n, cap)
            m = self.n
            adj = np.zeros((cap, cap), dtype=bool)
            adj[:m, :m] = self.adj[:m, :m]
            c2 = np.zeros((cap, cap), dtype=np.int32)
            c2[:m, :m] = self.c2[:m, :m]
            self.adj, self.c2 = adj, c2
            self._shared = False
        self.n = n

    def _own(self) -> None:
        """Privatize blocks shared with a fork sibling before writing."""
        if self._shared:
            self.adj = self.adj.copy()
            self.c2 = self.c2.copy()
            self._shared = False

    def clone(self, share: bool) -> "ArrayCore":
        """A copy; with ``share`` both sides keep the blocks until one writes."""
        c = ArrayCore.__new__(ArrayCore)
        c.n = self.n
        if share:
            c.adj, c.c2 = self.adj, self.c2
            self._shared = c._shared = True
        else:
            c.adj, c.c2 = self.adj.copy(), self.c2.copy()
            c._shared = False
        return c

    def dump(self) -> tuple[list, list]:
        """The state as JSON-ready lists: ``[src, dst]`` edges and
        ``[u, v, C2[u, v]]`` positive counters, both row-major with
        ascending columns (the ``np.nonzero`` order)."""
        n = self.n
        rows, cols = np.nonzero(self.adj[:n, :n])
        edges = [[r, c] for r, c in zip(rows.tolist(), cols.tolist())]
        cr, cc = np.nonzero(self.c2[:n, :n])
        counts = self.c2[cr, cc].tolist()
        return edges, [[u, v, k] for u, v, k in zip(cr.tolist(), cc.tolist(), counts)]

    @classmethod
    def load(cls, n: int, edges: list, c2: list) -> "ArrayCore":
        """A core holding ``n`` slots with the given :meth:`dump`-form state."""
        core = cls(_capacity(n))
        core.n = n
        e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        core.adj[e[:, 0], e[:, 1]] = True
        t = np.asarray(c2, dtype=np.int64).reshape(-1, 3)
        core.c2[t[:, 0], t[:, 1]] = t[:, 2]
        return core

    # -- queries --------------------------------------------------------
    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``i -> j`` exists."""
        return bool(self.adj[i, j])

    def out_slots(self, slot: int) -> np.ndarray:
        """Out-neighbor slots of ``slot``, ascending."""
        return self.adj[slot, : self.n].nonzero()[0]

    def in_slots(self, slot: int) -> np.ndarray:
        """In-neighbor slots of ``slot``, ascending."""
        return self.adj[: self.n, slot].nonzero()[0]

    def undirected_slots(self, slot: int) -> np.ndarray:
        """Slots with an edge to or from ``slot``: one row/column compare."""
        n = self.n
        return np.flatnonzero(self.adj[slot, :n] | self.adj[:n, slot])

    def v1_slots(self, slot: int) -> np.ndarray:
        """``slot`` and its in-neighbors: one column copy, one bit set."""
        col = self.adj[: self.n, slot].copy()
        col[slot] = True
        return col.nonzero()[0]

    def conflict_slots(self, slot: int) -> np.ndarray:
        """CA1 ∪ CA2 conflict slots of ``slot``, ascending."""
        n = self.n
        a = self.adj
        mask = a[slot, :n] | a[:n, slot] | (self.c2[slot, :n] > 0)
        mask[slot] = False
        return np.flatnonzero(mask)

    def conflict_pairs(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Conflict rows of ``slots``: one boolean block plus ``np.nonzero``."""
        n = self.n
        a = self.adj
        block = a[slots, :n] | a[:n, slots].T | (self.c2[slots, :n] > 0)
        block[_iota(len(slots)), slots] = False
        return np.nonzero(block)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every live slot."""
        n = self.n
        return np.count_nonzero(self.adj[:n, :n], axis=0)

    def adj_block(self) -> np.ndarray:
        """The ``(n, n)`` adjacency (a view — copy before writing)."""
        return self.adj[: self.n, : self.n]

    def conflict_block(self) -> np.ndarray:
        """A fresh ``(n, n)`` CA1 ∪ CA2 matrix, diagonal cleared."""
        n = self.n
        a = self.adj[:n, :n]
        block = a | a.T | (self.c2[:n, :n] > 0)
        np.fill_diagonal(block, False)
        return block

    # -- mutation -------------------------------------------------------
    def insert(self, g: "AdHocDigraph", i: int) -> None:
        """Create the edges of the freshly admitted slot ``i``.

        A :meth:`refresh` from the empty row and column: the kernels
        only visit what changes, so a join costs no more than its own
        edges and clique.
        """
        self.refresh(g, i)

    def refresh(self, g: "AdHocDigraph", i: int) -> None:
        """Recompute slot ``i``'s out- and in-edges from its geometry.

        One pairwise distance pass over every live slot answers both
        directions.
        """
        self._own()
        n = self.n
        pos, rng = g._pos, g._range
        r = float(rng[i])
        if g._fs:
            # Inline free-space kernel: identical arithmetic to
            # within_disc / covered_by (same subtraction, einsum and
            # closed-disc compares), one distance pass, no model
            # dispatch.
            diff = pos[:n] - pos[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            new_row = d2 <= r * r
            rr = rng[:n]
            new_col = d2 <= rr * rr
        else:
            cov, covby = pairwise_masks(g._prop, pos[i], r, pos[:n], rng[:n])
            new_row = np.asarray(cov, dtype=bool).copy()
            new_col = np.asarray(covby, dtype=bool).copy()
        new_row[i] = False
        new_col[i] = False
        self._apply_row(i, new_row)
        self._apply_col(i, new_col)

    def refresh_out(self, g: "AdHocDigraph", i: int) -> None:
        """Recompute slot ``i``'s out-edges only (a range change)."""
        self._own()
        n = self.n
        mask = g._prop.coverage(g._pos[i], float(g._range[i]), g._pos[:n]).copy()
        mask[i] = False
        self._apply_row(i, mask)

    def set_rows(self, i: int, out: np.ndarray, inn: np.ndarray) -> None:
        """Replace slot ``i``'s out- and in-rows with the given slots."""
        self._own()
        row = np.zeros(self.n, dtype=bool)
        row[out] = True
        col = np.zeros(self.n, dtype=bool)
        col[inn] = True
        self._apply_row(i, row)
        self._apply_col(i, col)

    def unlink(self, i: int) -> None:
        """Retract every edge and witness of slot ``i``.

        The receiver clique at ``i`` dissolves: replacing its in-column
        with an empty one takes one witness from every pair of its
        in-neighbors.  With its out-row gone every ``C2[i, ·]`` is zero,
        so the row and column are cleared outright.
        """
        self._own()
        n = self.n
        self._apply_col(i, np.zeros(n, dtype=bool))
        self.adj[i, :n] = False
        self.c2[i, :n] = 0
        self.c2[:n, i] = 0

    def rename(self, last: int, i: int) -> None:
        """Move slot ``last`` into the unlinked slot ``i`` and clear ``last``."""
        self._own()
        adj, c2 = self.adj, self.c2
        end = last + 1
        adj[i, :end] = adj[last, :end]
        adj[:end, i] = adj[:end, last]
        adj[i, i] = False
        c2[i, :end] = c2[last, :end]
        c2[:end, i] = c2[:end, last]
        c2[i, i] = 0
        adj[last, :end] = False
        adj[:end, last] = False
        c2[last, :end] = 0
        c2[:end, last] = 0

    def _apply_row(self, i: int, new_row: np.ndarray) -> None:
        """Replace slot ``i``'s out-row; ``repro_c2_row`` keeps C2 exact."""
        self._kernel("repro_c2_row", i, new_row)

    def _apply_col(self, i: int, new_col: np.ndarray) -> None:
        """Replace slot ``i``'s in-column; ``repro_c2_col`` keeps C2 exact."""
        self._kernel("repro_c2_col", i, new_col)

    def _kernel(self, name: str, i: int, new: np.ndarray) -> None:
        """Run a counter kernel of :mod:`repro._native` on the blocks.

        The kernels write through raw pointers, so the blocks must be
        private (:meth:`_own` ran) C-contiguous ``bool``/``int32``
        ``(cap, cap)`` arrays, and ``new`` a contiguous ``bool`` array of
        the ``n`` live slots; anything else raises before a pointer is
        passed.
        """
        n, adj, c2 = self.n, self.adj, self.c2
        cap = len(adj)
        if self._shared:
            raise RuntimeError(f"{name}: blocks shared with a fork; call _own() first")
        if not (
            adj.dtype == np.bool_
            and c2.dtype == np.int32
            and adj.shape == c2.shape == (cap, cap)
            and adj.flags.c_contiguous
            and c2.flags.c_contiguous
        ):
            raise ValueError(f"{name}: blocks must be C-contiguous bool/int32 (cap, cap) arrays")
        if not (new.dtype == np.bool_ and new.shape == (n,) and new.flags.c_contiguous):
            raise ValueError(f"{name}: expected a contiguous bool array of {n} slots")
        if not 0 <= i < n <= cap:
            raise ValueError(f"{name}: slot {i} outside the {n} live slots")
        fn = getattr(_native.library(), name)
        if fn(n, cap, adj.ctypes.data, c2.ctypes.data, int(i), new.ctypes.data):
            raise MemoryError(f"{name} scratch for n = {n}")
