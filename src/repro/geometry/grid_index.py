"""Uniform-grid spatial index over node slots, for disc queries.

For the paper's network sizes a brute-force scan is adequate, but a
spatial index keeps per-event topology updates near O(neighborhood) for
larger deployments.  :class:`SlotGridIndex` maps each cell to a
*contiguous numpy array of node slots* (the row indices of the
digraph's position and adjacency storage), so a candidate query is a
handful of dict lookups plus one ``np.concatenate`` — no per-item
Python loop and no id→slot translation on the hot path.

The grid is unbounded (cells are created lazily) and returns
*supersets* of the exact disc — the caller applies the exact distance
filter vectorized — so the digraph's edges never depend on the cell
size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, UnknownNodeError

__all__ = ["SlotGridIndex"]

#: Extra cell ring around every query window.  It guards the
#: exact-boundary corner cases (e.g. squared distances that underflow
#: to 0.0 for points a denormal away from the query on the other side
#: of a cell border).
_GUARD_CELLS = 1

#: Initial per-cell bucket capacity of :class:`SlotGridIndex`.
_BUCKET_CAPACITY = 8


class _SlotBucket:
    """A growable, contiguous array of node slots (one grid cell).

    Membership is unordered; removal swap-deletes so both insert and
    remove are amortized O(1).  The backing array doubles on demand and
    never shrinks — cells oscillate around a stable occupancy in the
    mobility workloads, so churn does not reallocate.
    """

    __slots__ = ("data", "count")

    def __init__(self, capacity: int = _BUCKET_CAPACITY) -> None:
        self.data = np.empty(capacity, dtype=np.intp)
        self.count = 0

    def append(self, slot: int) -> int:
        """Add ``slot``; returns its position within the bucket."""
        if self.count == len(self.data):
            grown = np.empty(2 * len(self.data), dtype=np.intp)
            grown[: self.count] = self.data[: self.count]
            self.data = grown
        pos = self.count
        self.data[pos] = slot
        self.count = pos + 1
        return pos

    def swap_delete(self, pos: int) -> int:
        """Remove the entry at ``pos``; returns the slot moved into it.

        The last entry fills the hole (or ``-1`` if ``pos`` was last),
        so the caller can update that slot's position record.
        """
        last = self.count - 1
        moved = -1
        if pos != last:
            moved = int(self.data[last])
            self.data[pos] = moved
        self.count = last
        return moved

    def copy(self) -> "_SlotBucket":
        clone = _SlotBucket(len(self.data))
        clone.data[: self.count] = self.data[: self.count]
        clone.count = self.count
        return clone


class SlotGridIndex:
    """Uniform grid of square cells over node *slots*.

    Items are keyed by their **slot** — the row index of the node in the
    digraph's flat adjacency/position arrays.  Candidate queries then
    return a numpy index array that can be applied directly to those
    arrays (``pos[cand]``, ``ranges[cand]``) with zero per-item Python
    work.

    The digraph owns the slot lifecycle: on swap-delete removal it calls
    :meth:`rename` so the grid tracks the slot renumbering, and it keeps
    positions itself — the grid stores only cell membership (per-slot
    packed cell key + position within the cell bucket), making every
    mutation O(1).

    Invariants (relied on by ``AdHocDigraph``):

    * slots present in the grid are exactly ``0..len(self)-1`` whenever
      the digraph's active block is fully inserted;
    * :meth:`candidate_slots` returns exactly the slots in the cells
      overlapping the disc's bounding box plus the guard ring — a
      *superset* of the exact disc, so the conflict cores compute
      byte-identical edge masks whatever the cell size.
    """

    def __init__(self, cell_size: float) -> None:
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ConfigurationError(f"cell_size must be positive and finite, got {cell_size}")
        self._cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], _SlotBucket] = {}
        # Grow-only bounding box of cells ever occupied (may be stale
        # after removals, which only makes the covers-everything
        # short-circuit in candidate_slots more conservative).
        self._bbox: list[int] | None = None  # [cx_lo, cx_hi, cy_lo, cy_hi]
        cap = _BUCKET_CAPACITY
        # Per-slot membership records, amortized-doubling like the
        # digraph's own arrays: which cell the slot sits in and where
        # inside that cell's bucket (for O(1) removal).
        self._cx = np.zeros(cap, dtype=np.int64)
        self._cy = np.zeros(cap, dtype=np.int64)
        self._pos_in_cell = np.full(cap, -1, dtype=np.int64)
        self._count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cell_size(self) -> float:
        """Side length of each grid cell."""
        return self._cell_size

    @property
    def cell_count(self) -> int:
        """Number of occupied cells.

        Callers use this as a selectivity signal: a disc query touches
        O(ring) cells, so when the whole population fits in about that
        many cells no query can exclude much and a vectorized full scan
        is cheaper than gathering candidates.
        """
        return len(self._cells)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, slot: int) -> bool:
        return 0 <= slot < len(self._pos_in_cell) and self._pos_in_cell[slot] >= 0

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_capacity(self, slot: int) -> None:
        cap = len(self._pos_in_cell)
        if slot < cap:
            return
        new_cap = cap
        while new_cap <= slot:
            new_cap *= 2
        for name in ("_cx", "_cy"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[:cap] = old
            setattr(self, name, grown)
        pic = np.full(new_cap, -1, dtype=np.int64)
        pic[:cap] = self._pos_in_cell
        self._pos_in_cell = pic

    def insert(self, slot: int, x: float, y: float) -> None:
        """Insert ``slot`` at ``(x, y)``; re-inserting moves it."""
        if slot < 0:
            raise ConfigurationError(f"slot must be non-negative, got {slot}")
        if slot in self:
            self.move(slot, x, y)
            return
        self._ensure_capacity(slot)
        cell = self._cell_of(x, y)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = _SlotBucket()
        self._pos_in_cell[slot] = bucket.append(slot)
        self._cx[slot], self._cy[slot] = cell
        self._count += 1
        self._grow_bbox(cell)

    def move(self, slot: int, x: float, y: float) -> None:
        """Update ``slot``'s position, switching cells if needed."""
        if slot not in self:
            raise UnknownNodeError(slot)
        new_cell = self._cell_of(x, y)
        old_cell = (int(self._cx[slot]), int(self._cy[slot]))
        if old_cell == new_cell:
            return
        self._detach(slot, old_cell)
        bucket = self._cells.get(new_cell)
        if bucket is None:
            bucket = self._cells[new_cell] = _SlotBucket()
        self._pos_in_cell[slot] = bucket.append(slot)
        self._cx[slot], self._cy[slot] = new_cell
        self._grow_bbox(new_cell)

    def _grow_bbox(self, cell: tuple[int, int]) -> None:
        bbox = self._bbox
        if bbox is None:
            self._bbox = [cell[0], cell[0], cell[1], cell[1]]
            return
        cx, cy = cell
        if cx < bbox[0]:
            bbox[0] = cx
        elif cx > bbox[1]:
            bbox[1] = cx
        if cy < bbox[2]:
            bbox[2] = cy
        elif cy > bbox[3]:
            bbox[3] = cy

    def remove(self, slot: int) -> None:
        """Remove ``slot``; raises :class:`UnknownNodeError` if absent."""
        if slot not in self:
            raise UnknownNodeError(slot)
        self._detach(slot, (int(self._cx[slot]), int(self._cy[slot])))
        self._pos_in_cell[slot] = -1
        self._count -= 1

    def rename(self, old_slot: int, new_slot: int) -> None:
        """Move the membership record of ``old_slot`` to ``new_slot``.

        The digraph's swap-delete removal renumbers the last slot into
        the vacated one; this keeps the grid aligned without touching
        cell geometry.  ``new_slot`` must not currently be present.
        """
        if old_slot not in self:
            raise UnknownNodeError(old_slot)
        if new_slot in self:
            raise ConfigurationError(f"rename target slot {new_slot} is already present")
        self._ensure_capacity(new_slot)
        cell = (int(self._cx[old_slot]), int(self._cy[old_slot]))
        pos = int(self._pos_in_cell[old_slot])
        self._cells[cell].data[pos] = new_slot
        self._cx[new_slot], self._cy[new_slot] = cell
        self._pos_in_cell[new_slot] = pos
        self._pos_in_cell[old_slot] = -1

    def _detach(self, slot: int, cell: tuple[int, int]) -> None:
        """Unlink ``slot`` from its bucket (caller fixes its records)."""
        bucket = self._cells[cell]
        moved = bucket.swap_delete(int(self._pos_in_cell[slot]))
        if moved >= 0:
            self._pos_in_cell[moved] = self._pos_in_cell[slot]
        if bucket.count == 0:
            del self._cells[cell]

    def copy(self) -> "SlotGridIndex":
        """Independent copy (same cell size, copied buckets and records)."""
        g = SlotGridIndex(self._cell_size)
        g._cells = {cell: bucket.copy() for cell, bucket in self._cells.items()}
        g._cx = self._cx.copy()
        g._cy = self._cy.copy()
        g._pos_in_cell = self._pos_in_cell.copy()
        g._count = self._count
        g._bbox = None if self._bbox is None else list(self._bbox)
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidate_slots(
        self, x: float, y: float, radius: float, *, cutoff: int | None = None
    ) -> np.ndarray | None:
        """Slots in all cells overlapping the disc's bounding box.

        A cheap *superset* of the exact disc (no distance filtering),
        returned as a numpy index array ready for fancy-indexing the
        digraph's position/range blocks.  The one-cell guard ring
        protects the exact-boundary corner cases.  The result is
        freshly allocated (never a view into a bucket).

        ``cutoff`` declares the candidate count at which gathering stops
        paying for itself: when at least that many slots fall inside the
        box, the query returns ``None`` ("not selective — test every
        slot") before concatenating anything.  Because candidates are a
        superset of the exact disc either way, callers that fall back to
        scanning the full slot range compute identical masks.
        """
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        cs = self._cell_size
        cx_lo = math.floor((x - radius) / cs) - _GUARD_CELLS
        cx_hi = math.floor((x + radius) / cs) + _GUARD_CELLS
        cy_lo = math.floor((y - radius) / cs) - _GUARD_CELLS
        cy_hi = math.floor((y + radius) / cs) + _GUARD_CELLS
        if (
            cutoff is not None
            and cutoff <= self._count
            and (bbox := self._bbox) is not None
            and cx_lo <= bbox[0]
            and bbox[1] <= cx_hi
            and cy_lo <= bbox[2]
            and bbox[3] <= cy_hi
        ):
            # The query box covers every cell ever occupied, so the gather
            # would collect all _count slots — at or past the cutoff.
            return None
        cells = self._cells
        parts: list[np.ndarray] = []
        total = 0
        if cutoff is None:
            cutoff = self._count + 1  # unreachable: never bail out
        if (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1) > len(cells):
            # Huge query relative to the occupancy: scan occupied cells.
            for (cx, cy), bucket in cells.items():
                if cx_lo <= cx <= cx_hi and cy_lo <= cy <= cy_hi:
                    parts.append(bucket.data[: bucket.count])
                    total += bucket.count
                    if total >= cutoff:
                        return None
        else:
            for cx in range(cx_lo, cx_hi + 1):
                for cy in range(cy_lo, cy_hi + 1):
                    bucket = cells.get((cx, cy))
                    if bucket is not None:
                        parts.append(bucket.data[: bucket.count])
                        total += bucket.count
                        if total >= cutoff:
                            return None
        if not parts:
            return np.empty(0, dtype=np.intp)
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts)
