"""The sparse conflict core: CSR slot rows and per-slot witness dicts.

One of the two slot-level conflict cores behind
:class:`~repro.topology.digraph.AdHocDigraph` (the other is
:mod:`repro.topology.cores.array`).  A graph promotes itself to this
core when its population reaches ``_SPARSE_AUTO_MIN``; it is the only
core that fits N ≥ 4096.

* Adjacency lives in CSR-style per-slot rows: sorted slot-index arrays
  with amortized-doubling growth, one out-row and one in-row per node.
* The CA2 witness counters live in per-slot dicts keyed by the
  *touched* columns only, so memory is O(N + E) instead of O(N²), and
  an edge flip updates ``deg(u)·deg(v)``-bounded counter entries
  instead of a full row.  Entries never store zero.
* Batched rounds (:meth:`SparseCore.commit`) requery the final edge
  sets of every touched slot from one grid-bucketed sweep and reconcile
  each changed receiver's clique once, however many of the round's
  events hit it.
* Conflict rows for many slots come from one sort-and-dedup pass and
  are cached per topology version (:meth:`SparseCore.conflict_rows`).

Forks share the row objects copy-on-write, per slot: a fork's cost is
O(touched neighborhoods), not O(N + E).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import metrics as _met
from repro.topology.propagation import block_masks, pairwise_masks

if TYPE_CHECKING:  # pragma: no cover - the graph passes itself in
    from repro.topology.digraph import AdHocDigraph

__all__ = ["SparseCore"]

try:
    # CPython's Counter backend: C-speed "+1 per occurrence" into an
    # exact dict.  Clique asserts only ever *increase* counters, so
    # bulk-counting keys this way preserves the never-store-zero
    # invariant (minus the self-entry, fixed by hand).
    from collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback

    def _count_elements(mapping: dict, iterable) -> None:
        for key in iterable:
            mapping[key] = mapping.get(key, 0) + 1


_EMPTY_SLOTS = np.empty(0, dtype=np.intp)
_EMPTY_SLOTS.flags.writeable = False


class _SlotRow:
    """One CSR-style adjacency row: a sorted, growable slot-index array.

    Entries are node slots sorted ascending (so set algebra runs through
    ``np.setdiff1d(..., assume_unique=True)`` and membership through
    ``searchsorted``); the backing array doubles on demand and never
    shrinks.
    """

    __slots__ = ("data", "count")

    def __init__(self, capacity: int = 4) -> None:
        self.data = np.empty(capacity, dtype=np.intp)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def view(self) -> np.ndarray:
        """The live sorted entries (a view — copy anything you keep)."""
        return self.data[: self.count]

    def values(self) -> np.ndarray:
        """A fresh copy of the sorted entries."""
        return self.data[: self.count].copy()

    def contains(self, slot: int) -> bool:
        # ndarray.searchsorted skips the np.searchsorted dispatch layer —
        # this runs hundreds of thousands of times per large-N trace.
        pos = int(self.data[: self.count].searchsorted(slot))
        return pos < self.count and int(self.data[pos]) == slot

    def insert(self, slot: int) -> None:
        """Insert ``slot`` keeping sort order (must not be present)."""
        n = self.count
        if n == len(self.data):
            grown = np.empty(2 * len(self.data), dtype=np.intp)
            grown[:n] = self.data[:n]
            self.data = grown
        pos = self.data[:n].searchsorted(slot)
        self.data[pos + 1 : n + 1] = self.data[pos:n]
        self.data[pos] = slot
        self.count = n + 1

    def remove(self, slot: int) -> None:
        """Remove ``slot`` (must be present)."""
        n = self.count
        pos = self.data[:n].searchsorted(slot)
        self.data[pos : n - 1] = self.data[pos + 1 : n]
        self.count = n - 1

    def replace(self, old_slot: int, new_slot: int) -> None:
        """Swap one entry for another (swap-delete slot renumbering)."""
        self.remove(old_slot)
        self.insert(new_slot)

    def set_sorted(self, slots: np.ndarray) -> None:
        """Replace the whole row with an already-sorted slot array."""
        k = len(slots)
        if k > len(self.data):
            cap = len(self.data)
            while cap < k:
                cap *= 2
            self.data = np.empty(cap, dtype=np.intp)
        self.data[:k] = slots
        self.count = k

    def clear(self) -> None:
        self.count = 0

    def copy(self) -> "_SlotRow":
        clone = _SlotRow(len(self.data))
        clone.data[: self.count] = self.data[: self.count]
        clone.count = self.count
        return clone


def _c2_inc(entries: dict[int, int], key: int, by: int = 1) -> None:
    """Add ``by`` witnesses to one C2 counter entry."""
    entries[key] = entries.get(key, 0) + by


def _c2_dec(entries: dict[int, int], key: int, by: int = 1) -> None:
    """Retract ``by`` witnesses; entries never store zero (pruned here).

    A missing key raises ``KeyError`` — by the maintenance invariant a
    retraction always targets a positive counter, so silent tolerance
    would only hide a bookkeeping bug.
    """
    left = entries[key] - by
    if left:
        entries[key] = left
    else:
        del entries[key]


# -- geometry in slot-set form ------------------------------------------
def _edge_sets(g: "AdHocDigraph", i: int) -> tuple[np.ndarray, np.ndarray]:
    """Final (out, in) slot sets of ``i`` under the current geometry.

    Sorted ascending, ``i`` excluded.  One candidate gather at the
    graph's maximum range answers both directions (any node that covers
    or is covered by ``i`` lies within it); the full-scan fallback
    computes the same membership.
    """
    n = len(g._ids)
    pos, rng = g._pos, g._range
    r = float(rng[i])
    cand = g._candidates(i, g._max_range)
    if cand is None:
        if g._fs:
            diff = pos[:n] - pos[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            cov = d2 <= r * r
            rr = rng[:n]
            covby = d2 <= rr * rr
        else:
            cov, covby = pairwise_masks(g._prop, pos[i], r, pos[:n], rng[:n])
            cov = np.asarray(cov, dtype=bool).copy()
            covby = np.asarray(covby, dtype=bool).copy()
        cov[i] = False
        covby[i] = False
        return np.flatnonzero(cov), np.flatnonzero(covby)
    if not cand.size:
        return _EMPTY_SLOTS.copy(), _EMPTY_SLOTS.copy()
    if g._fs:
        diff = pos[cand] - pos[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        cov = d2 <= r * r
        rr = rng[cand]
        covby = d2 <= rr * rr
    else:
        cov, covby = pairwise_masks(g._prop, pos[i], r, pos[cand], rng[cand])
    out = cand[cov]
    inn = cand[covby]
    return np.sort(out[out != i]), np.sort(inn[inn != i])


def _out_set(g: "AdHocDigraph", i: int) -> np.ndarray:
    """Final out slot set of ``i`` only (power changes: in-edges fixed)."""
    n = len(g._ids)
    r = float(g._range[i])
    cand = g._candidates(i, r)
    if cand is None:
        mask = np.asarray(g._prop.coverage(g._pos[i], r, g._pos[:n]), dtype=bool).copy()
        mask[i] = False
        return np.flatnonzero(mask)
    if not cand.size:
        return _EMPTY_SLOTS.copy()
    covered = np.asarray(g._prop.coverage(g._pos[i], r, g._pos[cand]), dtype=bool)
    out = cand[covered]
    return np.sort(out[out != i])


def _bulk_edge_sets(
    g: "AdHocDigraph", slots: list[int]
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Final (out, in) edge sets of many slots from one bucketed sweep.

    The slots are grouped by grid cell; each occupied cell makes **one**
    candidate-window gather and **one** block distance pass
    (:func:`block_masks`) for all its members, and per-member exact
    filters cut the shared superset down.  Every subtraction and
    comparison is the same IEEE-754 operation :func:`_edge_sets`
    performs for the corresponding pair, and both candidate windows are
    supersets of the exact disc, so the membership is byte-identical to
    the per-slot path, which unselective cells and gridless graphs use.
    """
    new_out: dict[int, np.ndarray] = {}
    new_in: dict[int, np.ndarray] = {}
    grid = g._selective_grid()
    if grid is None:
        for i in slots:
            new_out[i], new_in[i] = _edge_sets(g, i)
        return new_out, new_in
    radius = g._max_range
    pos, rng = g._pos, g._range
    groups: dict[tuple[int, int], list[int]] = {}
    for i in slots:
        groups.setdefault(grid.cell_of(i), []).append(i)
    for cell, members in groups.items():
        cand = g._cell_candidates(cell, radius)
        if cand is None:
            for i in members:
                new_out[i], new_in[i] = _edge_sets(g, i)
            continue
        gs = np.asarray(members, dtype=np.intp)
        ps = pos[gs]
        rs = rng[gs]
        cps = pos[cand]
        crs = rng[cand]
        if g._fs:
            diff = cps[None, :, :] - ps[:, None, :]
            d2 = np.einsum("gcj,gcj->gc", diff, diff)
            cov = d2 <= (rs * rs)[:, None]
            covby = d2 <= (crs * crs)[None, :]
        else:
            cov, covby = block_masks(g._prop, ps, rs, cps, crs)
        for j, i in enumerate(members):
            o = cand[cov[j]]
            new_out[i] = np.sort(o[o != i])
            s = cand[covby[j]]
            new_in[i] = np.sort(s[s != i])
    return new_out, new_in


class SparseCore:
    """CSR out/in rows and CA2 witness dicts of the live slots."""

    name = "sparse"

    def __init__(self) -> None:
        self.outr: list[_SlotRow] = []
        self.inr: list[_SlotRow] = []
        # c2s[u][v] = |out(u) ∩ out(v)| > 0, for the touched columns only.
        self.c2s: list[dict[int, int]] = []
        # Copy-on-write after a fork: rows are shared until owned.
        self.rows_cow = False
        self.owned: set[int] = set()
        self._crow_cache: dict[int, np.ndarray] = {}
        self._crow_version = -1

    # -- storage --------------------------------------------------------
    def resize(self, n: int) -> None:
        """Hold exactly ``n`` slot rows (fresh rows are empty and private)."""
        outr, inr, c2s = self.outr, self.inr, self.c2s
        if n < len(outr):
            del outr[n:], inr[n:], c2s[n:]
        while len(outr) < n:
            if self.rows_cow:
                self.owned.add(len(outr))
            outr.append(_SlotRow())
            inr.append(_SlotRow())
            c2s.append({})

    def _own(self, slot: int) -> None:
        """Privatize one shared slot (rows + witness dict) before writing.

        Called before any in-place mutation of ``outr[slot]`` /
        ``inr[slot]`` / ``c2s[slot]``: forked cores share the per-slot
        objects and copy exactly the slots their replay touches.
        """
        if self.rows_cow and slot not in self.owned:
            self.outr[slot] = self.outr[slot].copy()
            self.inr[slot] = self.inr[slot].copy()
            self.c2s[slot] = dict(self.c2s[slot])
            self.owned.add(slot)

    def clone(self, share: bool) -> "SparseCore":
        """A copy; with ``share`` both sides keep every row until they write it."""
        c = SparseCore()
        if share:
            c.outr, c.inr, c.c2s = list(self.outr), list(self.inr), list(self.c2s)
            # Every row is shared again after a fork — including rows a
            # previous fork had already privatized on this side.
            self.rows_cow = c.rows_cow = True
            self.owned = set()
        else:
            c.outr = [row.copy() for row in self.outr]
            c.inr = [row.copy() for row in self.inr]
            c.c2s = [dict(d) for d in self.c2s]
        return c

    def dump(self) -> tuple[list, list]:
        """The state as JSON-ready lists: ``[src, dst]`` edges and
        ``[u, v, count]`` witnesses, both row-major with ascending
        columns.  The dicts hold ascending keys only transiently, so
        each row is sorted on the way out."""
        edges = [[r, c] for r, row in enumerate(self.outr) for c in row.view().tolist()]
        c2 = [[u, v, entries[v]] for u, entries in enumerate(self.c2s) for v in sorted(entries)]
        return edges, c2

    @classmethod
    def load(cls, n: int, edges: list, c2: list) -> "SparseCore":
        """A core holding ``n`` slots with the given :meth:`dump`-form state."""
        core = cls()
        core.resize(n)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for src, dst in edges:
            out_lists[src].append(dst)
            in_lists[dst].append(src)
        for slot in range(n):
            core.outr[slot].set_sorted(np.asarray(sorted(out_lists[slot]), dtype=np.intp))
            core.inr[slot].set_sorted(np.asarray(sorted(in_lists[slot]), dtype=np.intp))
        c2s = core.c2s
        for u, v, count in c2:
            c2s[u][v] = count
        return core

    # -- queries --------------------------------------------------------
    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``i -> j`` exists."""
        return self.outr[i].contains(j)

    def out_slots(self, slot: int) -> np.ndarray:
        """Out-neighbor slots of ``slot``, ascending (a copy)."""
        return self.outr[slot].values()

    def in_slots(self, slot: int) -> np.ndarray:
        """In-neighbor slots of ``slot``, ascending (a copy)."""
        return self.inr[slot].values()

    def undirected_slots(self, slot: int) -> np.ndarray:
        """Slots with an edge to or from ``slot``: a merge of two O(deg) rows."""
        return np.union1d(self.outr[slot].view(), self.inr[slot].view())

    def v1_slots(self, slot: int) -> np.ndarray:
        """``slot`` and its in-neighbors: one sorted insertion into the in-row copy."""
        row = self.inr[slot].view()
        k = len(row)
        pos = int(row.searchsorted(slot))
        out = np.empty(k + 1, dtype=np.intp)
        out[:pos] = row[:pos]
        out[pos] = slot
        out[pos + 1 :] = row[pos:]
        return out

    def conflict_slots(self, slot: int) -> np.ndarray:
        """CA1 ∪ CA2 conflict slots of ``slot``: out ∪ in ∪ witness keys."""
        out = self.outr[slot].view()
        inn = self.inr[slot].view()
        entries = self.c2s[slot]
        if entries:
            keys = np.fromiter(entries.keys(), dtype=np.intp, count=len(entries))
            return np.unique(np.concatenate((out, inn, keys)))
        return np.union1d(out, inn)

    def conflict_pairs(self, slots: np.ndarray, version: int) -> tuple[np.ndarray, np.ndarray]:
        """Conflict rows of ``slots`` flattened from the cached rows."""
        rows = self.conflict_rows(slots, version)
        if not rows:
            return _EMPTY_SLOTS.copy(), _EMPTY_SLOTS.copy()
        lengths = [len(r) for r in rows]
        return np.repeat(np.arange(len(rows), dtype=np.intp), lengths), np.concatenate(rows)

    def conflict_rows(self, slots: np.ndarray, version: int) -> list[np.ndarray]:
        """Per-slot conflict arrays for ``slots``, cached per topology ``version``.

        Same membership and order as :meth:`conflict_slots`, but the
        rows are **read-only and version-cached**: between two topology
        mutations every slot's row is derived at most once (neighboring
        V1 queries overlap heavily), and uncached slots are answered by
        **one** sort-and-dedup pass over their concatenated rows — each
        slot's members are offset into a disjoint ``[j·n, (j+1)·n)``
        band, the union is deduplicated globally, and band boundaries
        are found with a single ``searchsorted``.
        """
        cache = self._crow_cache
        if self._crow_version != version:
            cache = self._crow_cache = {}
            self._crow_version = version
        requested = slots.tolist()
        members = [u for u in dict.fromkeys(requested) if u not in cache]
        if _met.ENABLED:
            _met.REGISTRY.inc("core.crow_cache.hit", len(requested) - len(members))
            _met.REGISTRY.inc("core.crow_cache.miss", len(members))
        if not members:
            return [cache[u] for u in requested]
        outr, inr, c2s = self.outr, self.inr, self.c2s
        n = len(outr)
        k = len(members)
        row_parts: list[np.ndarray] = []
        row_lens: list[int] = []
        key_lens: list[int] = []
        total_keys = 0
        for u in members:
            ov = outr[u].view()
            iv = inr[u].view()
            row_parts.append(ov)
            row_parts.append(iv)
            row_lens.append(ov.size + iv.size)
            m = len(c2s[u])
            key_lens.append(m)
            total_keys += m
        bands = np.arange(k, dtype=np.intp) * n
        rows_flat = np.concatenate(row_parts)
        rows_flat += np.repeat(bands, row_lens)
        if total_keys:
            # One fromiter over every member's witness keys beats one
            # array materialization per dict by a wide margin.
            keys_flat = np.fromiter(
                chain.from_iterable(c2s[u] for u in members),
                dtype=np.intp,
                count=total_keys,
            )
            keys_flat += np.repeat(bands, key_lens)
            flat = np.concatenate((rows_flat, keys_flat))
        else:
            flat = rows_flat
        if flat.size:
            # Explicit sort + adjacent-dedup: the bands are already
            # near-sorted runs, which quicksort exploits, and it avoids
            # np.unique's hash path (measured ~5x slower on these sizes).
            flat.sort()
            keep = np.empty(flat.size, dtype=bool)
            keep[0] = True
            np.not_equal(flat[1:], flat[:-1], out=keep[1:])
            merged = flat[keep]
            bounds = merged.searchsorted(bands[1:]).tolist()
            bounds.append(merged.size)
            lo = 0
            for j, hi in enumerate(bounds):
                row = merged[lo:hi] - j * n  # strips the band offset
                row.flags.writeable = False
                cache[members[j]] = row
                lo = hi
        else:
            for u in members:
                cache[u] = _EMPTY_SLOTS
        return [cache[u] for u in requested]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every live slot."""
        return np.fromiter((len(r) for r in self.inr), dtype=np.int64, count=len(self.inr))

    def adj_block(self) -> np.ndarray:
        """The out-rows densified into a fresh ``(n, n)`` block (O(N²))."""
        n = len(self.outr)
        block = np.zeros((n, n), dtype=bool)
        for i in range(n):
            block[i, self.outr[i].view()] = True
        return block

    def conflict_block(self) -> np.ndarray:
        """A fresh ``(n, n)`` CA1 ∪ CA2 matrix, diagonal cleared (O(N²))."""
        a = self.adj_block()
        block = a | a.T
        for u, entries in enumerate(self.c2s):
            if entries:
                block[u, list(entries)] = True
        np.fill_diagonal(block, False)
        return block

    # -- mutation -------------------------------------------------------
    def insert(self, g: "AdHocDigraph", i: int) -> None:
        """Create the edges of the freshly admitted slot ``i``."""
        self.refresh(g, i)

    def refresh(self, g: "AdHocDigraph", i: int) -> None:
        """Recompute slot ``i``'s out- and in-edges from its geometry."""
        new_out, new_in = _edge_sets(g, i)
        self._apply_row(i, new_out)
        self._apply_col(i, new_in)

    def refresh_out(self, g: "AdHocDigraph", i: int) -> None:
        """Recompute slot ``i``'s out-edges only (a range change)."""
        self._apply_row(i, _out_set(g, i))

    def set_rows(self, i: int, out: np.ndarray, inn: np.ndarray) -> None:
        """Replace slot ``i``'s out- and in-rows with the given sorted slots."""
        self._apply_row(i, out)
        self._apply_col(i, inn)

    def commit(self, g: "AdHocDigraph", slots: list[int]) -> None:
        """Bring the edges of slots whose geometry changed up to date.

        Captures the old rows, requeries every slot's final edge sets
        from one grid-bucketed sweep, and commits them in one grouped
        pass (:meth:`_commit_dirty_rows`).
        """
        # Joiners' rows are empty: share one empty array between them.
        outr, inr = self.outr, self.inr
        old_out = {i: outr[i].values() if outr[i].count else _EMPTY_SLOTS for i in slots}
        old_in = {i: inr[i].values() if inr[i].count else _EMPTY_SLOTS for i in slots}
        new_out, new_in = _bulk_edge_sets(g, slots)
        self._commit_dirty_rows(slots, set(slots), old_out, old_in, new_out, new_in)

    def unlink(self, i: int) -> None:
        """Retract every edge and witness of slot ``i``.

        The receiver clique at ``i`` dissolves (fused retraction), the
        incident rows drop ``i``, and every witness pair involving ``i``
        vanishes wholesale by dropping its dict and the mirror keys.
        """
        self._own(i)
        outr, inr, c2s = self.outr, self.inr, self.c2s
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, _EMPTY_SLOTS)
        for u in old_in.tolist():
            self._own(u)
            outr[u].remove(i)
        inr[i].clear()
        for w in outr[i].view().tolist():
            self._own(w)
            inr[w].remove(i)
        outr[i].clear()
        entries = c2s[i]
        for u in entries:
            self._own(u)
            del c2s[u][i]
        c2s[i] = {}

    def rename(self, last: int, i: int) -> None:
        """Move slot ``last`` into the unlinked slot ``i``.

        The moved node's own row objects transfer by reference, and
        every referencing row and witness dict swaps the ``last`` entry
        for ``i``.
        """
        outr, inr, c2s = self.outr, self.inr, self.c2s
        row = outr[last]
        for w in row.view().tolist():
            self._own(w)
            inr[w].replace(last, i)
        col = inr[last]
        for u in col.view().tolist():
            self._own(u)
            outr[u].replace(last, i)
        entries = c2s[last]
        for v in entries:
            self._own(v)
            mirror = c2s[v]
            mirror[i] = mirror.pop(last)
        outr[i] = row
        inr[i] = col
        c2s[i] = entries
        if self.rows_cow:
            # Slot ``i`` inherits slot ``last``'s ownership status.
            if last in self.owned:
                self.owned.discard(last)
                self.owned.add(i)
            else:
                self.owned.discard(i)

    def _apply_row(self, i: int, new_out: np.ndarray) -> None:
        """Replace slot ``i``'s out-row, batching the C2 witness deltas.

        When ``i`` starts (stops) covering a receiver ``w``, every other
        in-neighbor of ``w`` gains (loses) one witness with ``i``.  The
        deltas are aggregated *per co-parent* before touching any dict:
        the changed receivers' in-rows are concatenated, one
        ``np.unique`` collapses them to distinct co-parents, and signed
        ``np.bincount`` counts become one merged update per ``(i, u)``
        pair.  A count going negative raises ``KeyError``, like
        :func:`_c2_dec`.
        """
        self._own(i)
        outr, inr, c2s = self.outr, self.inr, self.c2s
        row_i = outr[i]
        old_out = row_i.view()
        if old_out.size:
            added = np.setdiff1d(new_out, old_out, assume_unique=True)
            removed = np.setdiff1d(old_out, new_out, assume_unique=True)
        else:
            added, removed = new_out, old_out
        if added.size or removed.size:
            # Removals drop ``i`` from the in-row first (the remaining
            # members are the losers); additions read the row before
            # ``i`` joins it (the existing members are the gainers) —
            # their structural inserts are deferred below, because the
            # gathered views alias the rows' live buffers until the
            # concatenate copies.
            added_list = added.tolist()
            parts: list[np.ndarray] = []
            gained = 0
            for w in added_list:
                v = inr[w].view()
                if v.size:
                    parts.append(v)
                    gained += v.size
            for w in removed.tolist():
                self._own(w)
                row = inr[w]
                row.remove(i)
                v = row.view()
                if v.size:
                    parts.append(v)
            if parts:
                flat = np.concatenate(parts)
                uniq, inv = np.unique(flat, return_inverse=True)
                delta = np.bincount(inv[:gained], minlength=uniq.size)
                delta -= np.bincount(inv[gained:], minlength=uniq.size)
                di = c2s[i]
                get_i = di.get
                for u, d in zip(uniq.tolist(), delta.tolist()):
                    if d == 0:
                        continue  # gains and losses at u cancelled exactly
                    left = get_i(u, 0) + d
                    if left > 0:
                        di[u] = left
                    elif left == 0:
                        del di[u]
                    else:  # a witness count went negative: bookkeeping bug
                        raise KeyError(u)
                    self._own(u)
                    du = c2s[u]
                    left = du.get(i, 0) + d
                    if left > 0:
                        du[i] = left
                    elif left == 0:
                        del du[i]
                    else:
                        raise KeyError(i)
            for w in added_list:
                self._own(w)
                inr[w].insert(i)
        row_i.set_sorted(new_out)

    def _apply_col(self, i: int, new_in: np.ndarray) -> None:
        """Replace slot ``i``'s in-row: reconcile the receiver clique."""
        self._own(i)
        outr, inr = self.outr, self.inr
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, new_in)
        if old_in.size:
            arrived = np.setdiff1d(new_in, old_in, assume_unique=True)
            departed = np.setdiff1d(old_in, new_in, assume_unique=True)
        else:  # join fast path: every in-neighbor is new
            arrived, departed = new_in, old_in
        for u in arrived.tolist():
            self._own(u)
            outr[u].insert(i)
        for u in departed.tolist():
            self._own(u)
            outr[u].remove(i)
        inr[i].set_sorted(new_in)

    def _reconcile_receiver(self, w: int, old: np.ndarray, new: np.ndarray) -> None:
        """Fused C2 update for receiver ``w``'s in-set change old → new.

        The in-neighbors of ``w`` form a CA2 clique; with ``A = new \\
        old`` (arrivals), ``R = old \\ new`` (departures) and ``K = old
        ∩ new`` (keepers), the ordered-pair witness deltas are exactly:
        retract ``(r, u)`` for every ``r ∈ R, u ∈ old \\ {r}`` plus
        ``(k, r)`` for every ``k ∈ K, r ∈ R``; assert the mirror-image
        pairs over ``new`` and ``A``.  Pairs among the keepers cancel —
        they are never touched — so the work is O((|A|+|R|)·deg(w))
        dict operations, not a clique-sized broadcast.
        """
        if len(old) == len(new) and np.array_equal(old, new):
            return
        c2s = self.c2s
        if old.size:
            added = np.setdiff1d(new, old, assume_unique=True)
            removed = np.setdiff1d(old, new, assume_unique=True)
            kept = np.setdiff1d(old, removed, assume_unique=True).tolist()
        else:  # join fast path: the whole new clique is asserted
            added, removed, kept = new, old, []
        olds = old.tolist()
        for r in removed.tolist():
            self._own(r)
            dr = c2s[r]
            for u in olds:
                if u != r:
                    _c2_dec(dr, u)
            for k in kept:
                self._own(k)
                _c2_dec(c2s[k], r)
        news = new.tolist()
        for a in added.tolist():
            # Assertions only ever increase counters, so the whole
            # member list can be bulk-counted at C speed; the one
            # self-count (``a ∈ news``) is backed out by hand — the
            # diagonal is never stored, so backing it out either
            # restores the prior entry or deletes the fresh ``+1``.
            self._own(a)
            da = c2s[a]
            _count_elements(da, news)
            left = da[a] - 1
            if left:
                da[a] = left
            else:
                del da[a]
            for k in kept:
                self._own(k)
                _c2_inc(c2s[k], a)

    def _commit_dirty_rows(
        self,
        dirty_slots: list[int],
        dirty_set: set[int],
        old_out: dict[int, np.ndarray],
        old_in: dict[int, np.ndarray],
        new_out: dict[int, np.ndarray],
        new_in: dict[int, np.ndarray],
    ) -> None:
        """Commit requeried rows for the dirty slots (structural + C2).

        Given every dirty slot's old and final (out, in) sets, flip the
        structural edges and reconcile the C2 witness counters so the
        rows are exactly what sequential application would leave.

        The out-row diffs are grouped by outside receiver, so a receiver
        hit by k events reconciles once, not k times.  The grouping is
        vectorized: every dirty row's asserted and retracted receivers
        concatenate into one (receiver, source) array pair —
        retractions carry ``~source`` so one intp array holds both signs
        — dirty receivers are masked out in one indexed lookup, and a
        single stable argsort over the receivers yields the runs.
        """
        outr, inr, c2s = self.outr, self.inr, self.c2s
        recv_parts: list[np.ndarray] = []
        src_parts: list[np.ndarray] = []
        for i in dirty_slots:
            old = old_out[i]
            if old.size:
                add = np.setdiff1d(new_out[i], old, assume_unique=True)
                rem = np.setdiff1d(old, new_out[i], assume_unique=True)
            else:  # join fast path: every receiver is newly asserted
                add, rem = new_out[i], old
            if add.size:
                recv_parts.append(add)
                src_parts.append(np.full(add.size, i, dtype=np.intp))
            if rem.size:
                recv_parts.append(rem)
                src_parts.append(np.full(rem.size, ~i, dtype=np.intp))
        groups: list[tuple[int, np.ndarray]] = []
        if recv_parts:
            recv = np.concatenate(recv_parts)
            src = np.concatenate(src_parts)
            is_dirty = np.zeros(len(outr), dtype=bool)
            is_dirty[dirty_slots] = True
            keep = ~is_dirty[recv]
            if keep.any():
                recv = recv[keep]
                src = src[keep]
                order = recv.argsort(kind="stable")
                recv = recv[order]
                src = src[order]
                starts = np.flatnonzero(np.diff(recv)) + 1
                receivers = recv[np.concatenate((np.zeros(1, dtype=np.intp), starts))]
                for w, seg in zip(receivers.tolist(), np.split(src, starts)):
                    groups.append((w, seg))

        # C2 reconciliation, one pass per changed receiver row.  Dirty
        # receivers get the full old → new reconcile; an outside
        # receiver hit by a single event takes the cheap incremental
        # update the sequential path would, and only receivers hit by
        # several events pay the fused reconcile — exactly where fusing
        # wins, because the k hits reconcile once.
        for w in dirty_slots:
            self._reconcile_receiver(w, old_in[w], new_in[w])
        for w, seg in groups:
            self._own(w)
            row = inr[w]
            if seg.size == 1:
                i = int(seg[0])
                if i >= 0:
                    self._own(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own(u)
                        _c2_inc(di, u)
                        _c2_inc(c2s[u], i)
                    row.insert(i)
                else:
                    i = ~i
                    row.remove(i)
                    self._own(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own(u)
                        _c2_dec(di, u)
                        _c2_dec(c2s[u], i)
                continue
            adds = seg[seg >= 0]
            dels = ~seg[seg < 0]
            old = row.values()
            new = old
            if dels.size:
                new = np.setdiff1d(new, np.sort(dels), assume_unique=True)
            if adds.size:
                new = np.union1d(new, adds)
            self._reconcile_receiver(w, old, new)
            row.set_sorted(new)

        # Structural flips: dirty rows replaced wholesale, non-dirty
        # sources get their grouped out-row edits.
        for i in dirty_slots:
            self._own(i)
            old = old_in[i]
            if old.size:
                arrived = np.setdiff1d(new_in[i], old, assume_unique=True)
                departed = np.setdiff1d(old, new_in[i], assume_unique=True)
            else:  # join fast path: every in-neighbor is new
                arrived, departed = new_in[i], old
            for u in arrived.tolist():
                if u not in dirty_set:
                    self._own(u)
                    outr[u].insert(i)
            for u in departed.tolist():
                if u not in dirty_set:
                    self._own(u)
                    outr[u].remove(i)
            outr[i].set_sorted(new_out[i])
            inr[i].set_sorted(new_in[i])
