"""Dynamic ad-hoc digraph with incremental reconfiguration updates.

``AdHocDigraph`` maintains the directed graph induced by node
configurations under a propagation model.  It is the single source of
truth for topology; strategies and simulators query it, never raw arrays.

Implementation notes (per the hpc-parallel guides):

* Positions, ranges and the boolean adjacency matrix live in dense NumPy
  arrays with amortized-doubling capacity so joins are O(N) not O(N^2).
* Removal swap-deletes the last slot into the vacated one, keeping the
  active block contiguous (cache-friendly row/column operations).
* All neighbor queries return id lists sorted ascending for determinism.

Two conflict-maintenance cores exist, selected by population — there
is no knob:

* **Array (below ``_SPARSE_AUTO_MIN`` nodes).**  The dense-block
  core: the adjacency and the CA2 witness counters
  ``C2[u, v] = |out(u) ∩ out(v)|`` live in ``(cap, cap)`` blocks.  A
  :class:`SlotGridIndex` buckets node *slots* (row indices of the flat
  arrays) per grid cell, so a candidate query returns a numpy index
  array with no id→slot translation; each
  join/move recomputes out- and in-edges from **one** candidate fetch
  and **one** pairwise distance pass
  (:func:`repro.topology.propagation.pairwise_masks`); and the CA1/CA2
  delta update is batched — the counters are adjusted only for the
  in-neighbor pairs that actually changed, via broadcast index
  arithmetic.
* **Sparse (from ``_SPARSE_AUTO_MIN`` nodes on).**  The large-N core:
  adjacency lives in CSR-style per-slot rows (sorted slot-index arrays
  with amortized-doubling growth, one out-row and one in-row per node)
  and the CA2 witness counters in per-slot dicts keyed by the *touched*
  columns only, so memory is O(N + E) instead of the array core's
  O(N²) blocks and an edge flip updates ``deg(u)·deg(v)``-bounded
  counter entries instead of a full ``(cap,)`` row.  Every graph
  starts on the array core and **auto-promotes** to sparse when its
  population reaches ``_SPARSE_AUTO_MIN`` — or, for a batched round
  (:meth:`AdHocDigraph.bulk_join`, :meth:`AdHocDigraph.apply_round`)
  or a restore, up front when the round or snapshot will reach it.
  The sparse core additionally answers
  :meth:`AdHocDigraph.apply_round` with true multi-event batching.

Both cores answer the same object-level API (``out_neighbors``,
``conflict_neighbor_ids``, …) with byte-identical results and
snapshots, and both are checked on every event against a brute-force
re-derivation from the node configurations
(``tests/topology/oracles.py``).  The slot-native query surface
(:meth:`AdHocDigraph.slot_of`, :meth:`AdHocDigraph.in_slots`,
:meth:`AdHocDigraph.conflict_masks`) lets vectorized consumers — the
bench driver, whole-network recolors — skip per-node Python entirely.

The grid fast path is only engaged when the propagation model declares
``disc_bounded = True`` (coverage is a subset of the transmission disc,
true for the free-space and obstructed models); other models fall back
to full scans while keeping the incremental conflict counters.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import chain
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ConfigurationError,
    DuplicateNodeError,
    InvalidEventError,
    UnknownNodeError,
)
from repro.geometry.grid_index import SlotGridIndex
from repro.obs import metrics as _met
from repro.topology.node import NodeConfig
from repro.topology.propagation import (
    FreeSpacePropagation,
    PropagationModel,
    block_masks,
    pairwise_masks,
)
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only; events imports topology.node
    from repro.events.base import Event

__all__ = ["AdHocDigraph", "TopologyDelta", "default_core"]

_INITIAL_CAPACITY = 16
#: Memo key of the assembled conflict-adjacency pair (node ids are ints,
#: so a string key can never collide with a per-node conflict-set entry).
_CONFLICT_ADJ_KEY = "conflict_adjacency"
#: Rebuild the spatial grid when a range exceeds this multiple of the
#: cell size, so disc queries keep touching O(1) cells as power grows.
_REGRID_FACTOR = 4.0


def _reject_retired_knobs() -> None:
    """Raise if the environment selects a conflict core by hand.

    Ignoring such a setting silently would stamp results with a core the
    user did not ask for.  Settings that were already no-ops (unset, or
    ``0`` for the removed opt-ins) stay accepted; ``REPRO_SPARSE`` chose
    between the two remaining cores, which the population now decides,
    so any value of it is rejected.
    """
    env = os.environ
    for var, removed in (
        ("REPRO_DENSE", env.get("REPRO_DENSE", "") not in ("", "0")),
        ("REPRO_SPARSE_SCALAR", env.get("REPRO_SPARSE_SCALAR", "") not in ("", "0")),
        ("REPRO_ARRAY", env.get("REPRO_ARRAY", "1") in ("", "0")),
        ("REPRO_SPARSE", env.get("REPRO_SPARSE", "") != ""),
    ):
        if removed:
            raise ConfigurationError(
                f"{var}={env[var]!r} selects a conflict core by hand, which was "
                "removed; the population picks the core (array below "
                f"{_SPARSE_AUTO_MIN} nodes, sparse from there on) — unset it"
            )


try:
    # CPython's Counter backend: C-speed "+1 per occurrence" into an
    # exact dict.  The sparse core's clique asserts only ever *increase*
    # counters, so bulk-counting keys this way preserves the
    # never-store-zero invariant (minus the self-entry, fixed by hand).
    from collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback

    def _count_elements(mapping: dict, iterable) -> None:
        for key in iterable:
            mapping[key] = mapping.get(key, 0) + 1


#: The array core defers building its slot grid until this many nodes
#: are live: below it the selectivity gate falls back to full scans
#: anyway, so per-event grid upkeep would be pure overhead.
_GRID_LAZY_MIN = 256

#: Below this many occupied grid cells a disc query ring (~5×5 cells
#: with the guard) covers most of the population, so candidate gathering
#: cannot beat a vectorized full scan and the array core skips the grid.
_MIN_SELECTIVE_CELLS = 32


def _count_grid_result(cand):
    """Fold one grid candidate query into the metrics registry.

    ``None`` is the grid's 3n/4-cutoff bailout ("not selective — scan
    everyone"); an array is a selective window whose size distribution
    the report surfaces.  Callers guard on ``_met.ENABLED``.
    """
    if cand is None:
        _met.REGISTRY.inc("core.grid.bailout")
    else:
        _met.REGISTRY.inc("core.grid.window")
        _met.REGISTRY.observe("core.grid.candidate_window", int(cand.size))
    return cand

#: Population at which an array-core graph auto-promotes itself to the
#: sparse core: past this size the dense (cap, cap)
#: adjacency/C2 blocks cost O(N²) memory and full-row C2 updates, while
#: the sparse rows stay O(N + E).  Chosen well above every scenario the
#: registry sweeps (≤ a few hundred nodes) and below the large-N bench.
_SPARSE_AUTO_MIN = 4096

_IOTA = np.arange(256, dtype=np.intp)

_EMPTY_SLOTS = np.empty(0, dtype=np.intp)
_EMPTY_SLOTS.flags.writeable = False


def _iota(k: int) -> np.ndarray:
    """A shared ``arange(k)`` view (grown on demand) for diagonal writes."""
    global _IOTA
    if k > len(_IOTA):
        _IOTA = np.arange(2 * k, dtype=np.intp)
    return _IOTA[:k]


def default_core(n: int | None = None) -> str:
    """The conflict core a graph of ``n`` nodes runs.

    ``"array"`` or ``"sparse"``: the array core hands off to sparse once
    ``n >= _SPARSE_AUTO_MIN`` (``None`` means a small graph).  Execution
    provenance (sweep manifests, stored point records) stamps this with
    the population it ran so results record which core produced them.
    """
    _reject_retired_knobs()
    if n is not None and n >= _SPARSE_AUTO_MIN:
        return "sparse"
    return "array"


class _SlotRow:
    """One CSR-style adjacency row: a sorted, growable slot-index array.

    The sparse core keeps one out-row and one in-row per node slot.
    Entries are node slots sorted ascending (so set algebra runs through
    ``np.setdiff1d(..., assume_unique=True)`` and membership through
    ``searchsorted``); the backing array doubles on demand and never
    shrinks, matching the amortized-growth discipline of the digraph's
    flat blocks.
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


@dataclass(frozen=True)
class TopologyDelta:
    """The strategy-independent record of one applied topology event.

    Produced by :meth:`AdHocDigraph.apply_event` *after* the mutation is
    committed, a delta carries everything a recoding strategy's event
    handler needs beyond the post-event graph itself: the event kind
    (power changes are classified increase/decrease here, where the old
    range is still known) and the pre-event conflict set of the node for
    power increases (the CP extension recodes exactly the nodes that
    *gained* a constraint).

    Because deltas capture only graph-derived state, one delta stream
    can be fanned out to any number of per-strategy assignment states —
    the topology mutation and conflict-delta computation run once, not
    once per strategy.
    """

    #: Event kind after classification:
    #: ``"join" | "leave" | "move" | "power_increase" | "power_decrease"``.
    kind: str
    #: The initiating node (joined / left / moved / changed power).
    node_id: NodeId
    #: Topology version after this event was applied.
    version: int
    #: The removed node's last configuration (``leave`` only).
    removed_config: NodeConfig | None = None
    #: Transmission range before the change (power events only).
    old_range: float | None = None
    #: CA1 ∪ CA2 conflict set of ``node_id`` *before* the event
    #: (power events only).
    old_conflicts: frozenset[NodeId] = field(default_factory=frozenset)


class AdHocDigraph:
    """The power-controlled ad-hoc network digraph (paper section 2).

    Edge rule: ``u -> v`` iff the propagation model says ``u``'s
    transmission covers ``v`` (free space: ``d(u, v) <= r_u``).

    Parameters
    ----------
    propagation:
        Propagation model; defaults to the paper's free-space disc.
    grid_cell_size:
        Explicit spatial-grid cell size.  Default: sized from observed
        transmission ranges (a disc query then touches O(1) cells).
    """

    def __init__(
        self,
        propagation: PropagationModel | None = None,
        *,
        grid_cell_size: float | None = None,
    ) -> None:
        _reject_retired_knobs()
        self._prop: PropagationModel = (
            propagation if propagation is not None else FreeSpacePropagation()
        )
        # Exactly free space (not a subclass): gates the inlined
        # distance kernel on the array fast path.
        self._fs = type(self._prop) is FreeSpacePropagation
        # Every graph starts on the array core; _maybe_promote switches
        # it to sparse once the population reaches _SPARSE_AUTO_MIN.
        self._sparse = False
        cap = _INITIAL_CAPACITY
        self._pos = np.zeros((cap, 2), dtype=np.float64)
        self._range = np.zeros(cap, dtype=np.float64)
        self._ids: list[NodeId] = []  # index -> id, for the active block
        self._ida = np.zeros(cap, dtype=np.int64)  # slot-aligned ids (hot queries)
        self._index: dict[NodeId, int] = {}
        self._adj = np.zeros((cap, cap), dtype=bool)
        # CA2 witness counts C2[u, v] = |out(u) ∩ out(v)|.
        self._c2 = np.zeros((cap, cap), dtype=np.int32)
        # The sparse core's tables, created by _activate_sparse.
        self._outr: list[_SlotRow] = None  # type: ignore[assignment]
        self._inr: list[_SlotRow] = None  # type: ignore[assignment]
        self._c2s: list[dict[int, int]] = None  # type: ignore[assignment]
        self._use_grid = bool(getattr(self._prop, "disc_bounded", False))
        self._grid: SlotGridIndex | None = None
        self._grid_cell = grid_cell_size
        # The cell size the grid has — or, while building it is
        # deferred (below _GRID_LAZY_MIN nodes), *would* have — under
        # the first-insert / regrid-factor rules.  Maintained on every
        # insert and power raise so snapshots and the deferred build see
        # the same geometry an eagerly built grid would evolve.
        self._cell_live: float | None = None
        # Cached upper bound on max(range); may be stale-high after a
        # removal or power decrease, which only widens candidate discs
        # (still a superset — results unchanged).
        self._max_range = 0.0
        self._version = 0
        # Per-version memo of derived conflict queries.  Multi-strategy
        # replay issues the same queries once per strategy between two
        # topology events; the memo makes repeats O(1).
        self._memo: dict = {}
        self._memo_version = -1
        # Per-slot conflict-row cache for conflict_slot_lists, keyed by
        # topology version like the id-based memo (slots and node ids
        # are both ints, so the two caches cannot share one dict).
        self._crow_cache: dict[int, np.ndarray] = {}
        self._crow_version = -1
        # Delta-snapshot bookkeeping: slot -> topology version of the
        # last mutation that rewrote the slot's occupant/configuration
        # (edges are derived from endpoint configs, so config-dirty
        # slots bound every edge change).  ``_delta_floor`` is the
        # earliest base version :meth:`delta_snapshot` can serve —
        # tracking starts at construction (or at restore).
        self._touched: dict[int, int] = {}
        self._delta_floor = 0
        # Copy-on-write bookkeeping (see :meth:`fork`): when a graph is
        # forked, the dense blocks / sparse rows / grid are shared
        # between the siblings and privatized on first write.
        self._blocks_shared = False
        self._grid_shared = False
        self._rows_cow = False
        self._owned_slots: set[int] = set()
        # The threshold holds at every population, the empty one
        # included: lowered to zero, it starts a new graph on sparse rows.
        self._maybe_promote(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def propagation(self) -> PropagationModel:
        """The propagation model edges are computed under."""
        return self._prop

    @property
    def sparse_core(self) -> bool:
        """Whether this graph runs the sparse (CSR rows) conflict core."""
        return self._sparse

    @property
    def core(self) -> str:
        """The active core: ``"array"`` or ``"sparse"``.

        Stamped into sweep manifests and stored point provenance so
        results record which core produced them.  Note an auto-promoted
        graph reports ``"sparse"`` from the promotion event on.
        """
        return "sparse" if self._sparse else "array"

    @property
    def version(self) -> int:
        """The topology version (bumped once per applied mutation).

        The anchor of the delta-snapshot protocol: a
        :meth:`delta_snapshot` is taken *against* a base version and a
        delta :meth:`apply_delta` refuses to land on any other version,
        so chained checkpoints can never silently diverge.
        """
        return self._version

    @property
    def delta_floor(self) -> int:
        """Earliest version :meth:`delta_snapshot` can use as a base.

        ``0`` for a graph built by live mutation; the restored version
        for a graph rebuilt by :meth:`restore`, whose per-slot history
        starts there.
        """
        return self._delta_floor

    @property
    def grid_index(self) -> SlotGridIndex | None:
        """The spatial index backing the fast path (``None`` if unused).

        A :class:`SlotGridIndex` over node *slots*, whose build is
        deferred until the population is large enough for candidate
        queries to pay — accessing this property forces the deferred
        build so callers always observe a complete index.
        """
        if self._grid is None and self._use_grid and self._cell_live is not None and self._ids:
            self._build_grid(self._cell_live)
        return self._grid

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._index

    def node_ids(self) -> list[NodeId]:
        """All node ids, ascending."""
        return sorted(self._index)

    def config(self, node_id: NodeId) -> NodeConfig:
        """The current configuration of ``node_id``."""
        i = self._idx(node_id)
        return NodeConfig(
            node_id, float(self._pos[i, 0]), float(self._pos[i, 1]), float(self._range[i])
        )

    def configs(self) -> list[NodeConfig]:
        """All node configurations, ascending by id."""
        return [self.config(v) for v in self.node_ids()]

    def position_of(self, node_id: NodeId) -> tuple[float, float]:
        """The ``(x, y)`` position of ``node_id``."""
        i = self._idx(node_id)
        return (float(self._pos[i, 0]), float(self._pos[i, 1]))

    def range_of(self, node_id: NodeId) -> float:
        """The transmission range of ``node_id``."""
        return float(self._range[self._idx(node_id)])

    # ------------------------------------------------------------------
    # Edge queries
    # ------------------------------------------------------------------
    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        si, di = self._idx(src), self._idx(dst)
        if self._sparse:
            return self._outr[si].contains(di)
        return bool(self._adj[si, di])

    def out_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes within ``node_id``'s transmission range (sorted)."""
        i = self._idx(node_id)
        if self._sparse:
            return sorted(self._ida[self._outr[i].view()].tolist())
        n = len(self._ids)
        return sorted(self._ida[:n][self._adj[i, :n]].tolist())

    def in_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes whose transmissions reach ``node_id`` (sorted)."""
        i = self._idx(node_id)
        if self._sparse:
            return sorted(self._ida[self._inr[i].view()].tolist())
        n = len(self._ids)
        return sorted(self._ida[:n][self._adj[:n, i]].tolist())

    def undirected_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Union of in- and out-neighbors (sorted)."""
        return sorted(self._ida[self.undirected_slots(self._idx(node_id))].tolist())

    def out_degree(self, node_id: NodeId) -> int:
        """Number of out-neighbors."""
        i = self._idx(node_id)
        if self._sparse:
            return len(self._outr[i])
        return int(self._adj[i, : len(self._ids)].sum())

    def in_degree(self, node_id: NodeId) -> int:
        """Number of in-neighbors."""
        i = self._idx(node_id)
        if self._sparse:
            return len(self._inr[i])
        return int(self._adj[: len(self._ids), i].sum())

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node, by slot (see :meth:`slot_ids`)."""
        n = len(self._ids)
        if self._sparse:
            return np.fromiter((len(r) for r in self._inr[:n]), dtype=np.int64, count=n)
        return np.count_nonzero(self._adj[:n, :n], axis=0)

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate all directed edges as ``(src, dst)`` id pairs.

        Row-major slot order (identical across cores: out-rows are
        sorted, matching ``np.nonzero`` on the dense block).
        """
        n = len(self._ids)
        if self._sparse:
            for r in range(n):
                src = self._ids[r]
                for c in self._outr[r].view().tolist():
                    yield (src, self._ids[c])
            return
        rows, cols = np.nonzero(self._adj[:n, :n])
        for r, c in zip(rows.tolist(), cols.tolist()):
            yield (self._ids[r], self._ids[c])

    def edge_count(self) -> int:
        """Total number of directed edges."""
        n = len(self._ids)
        if self._sparse:
            return sum(row.count for row in self._outr)
        return int(self._adj[:n, :n].sum())

    def adjacency(self) -> tuple[list[NodeId], np.ndarray]:
        """``(ids, A)`` where ``A[i, j]`` == edge ``ids[i] -> ids[j]``.

        ``ids`` is ascending; ``A`` is a copy safe to mutate.  This is the
        entry point for vectorized consumers (conflict-matrix builds,
        whole-network recoloring).  The sparse core densifies its rows
        here — this is an O(N²) materialization by contract, meant for
        whole-network consumers, not per-event hot paths.
        """
        order = sorted(range(len(self._ids)), key=lambda j: self._ids[j])
        ids = [self._ids[j] for j in order]
        n = len(self._ids)
        block = self._adj_block() if self._sparse else self._adj[:n, :n]
        perm = np.asarray(order, dtype=np.intp)
        return ids, block[np.ix_(perm, perm)].copy()

    def positions_and_ranges(self) -> tuple[list[NodeId], np.ndarray, np.ndarray]:
        """``(ids, positions, ranges)`` aligned arrays, ids ascending."""
        order = sorted(range(len(self._ids)), key=lambda j: self._ids[j])
        ids = [self._ids[j] for j in order]
        perm = np.asarray(order, dtype=np.intp)
        return ids, self._pos[perm].copy(), self._range[perm].copy()

    # ------------------------------------------------------------------
    # Copy-on-write plumbing (see fork())
    # ------------------------------------------------------------------
    def _own_dense_blocks(self) -> None:
        """Privatize the shared dense adjacency/C2 blocks before writing.

        The array core mutates the (cap, cap) arrays on every event, so
        the first mutation after a fork pays the one deferred block
        copy; read-only forks (stored checkpoints) never pay it.  Only
        array-core graphs ever have shared blocks.
        """
        if self._blocks_shared:
            self._adj = self._adj.copy()
            self._c2 = self._c2.copy()
            self._blocks_shared = False

    def _own_grid(self) -> None:
        """Privatize the shared spatial index before mutating it."""
        if self._grid_shared:
            if self._grid is not None:
                self._grid = self._grid.copy()
            self._grid_shared = False

    def _own_slot(self, slot: int) -> None:
        """Privatize one shared sparse slot (rows + witness dict).

        The sparse core's row-level copy-on-write gate: called before
        any in-place mutation of ``_outr[slot]`` / ``_inr[slot]`` /
        ``_c2s[slot]``.  Forked graphs share the per-slot objects and
        copy exactly the slots their replay touches, so a fork's cost
        is O(touched neighborhoods), not O(N + E).
        """
        if self._rows_cow and slot not in self._owned_slots:
            self._outr[slot] = self._outr[slot].copy()
            self._inr[slot] = self._inr[slot].copy()
            self._c2s[slot] = dict(self._c2s[slot])
            self._owned_slots.add(slot)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, cfg: NodeConfig) -> None:
        """Join ``cfg`` to the network, creating its in/out edges."""
        if cfg.node_id in self._index:
            raise DuplicateNodeError(cfg.node_id)
        if not self._sparse:
            self._own_dense_blocks()
        n = len(self._ids) + 1
        self._ensure_capacity(n)
        i = n - 1
        self._pos[i] = (cfg.x, cfg.y)
        self._range[i] = cfg.tx_range
        if cfg.tx_range > self._max_range:
            self._max_range = float(cfg.tx_range)
        self._ids.append(cfg.node_id)
        self._ida[i] = cfg.node_id
        self._index[cfg.node_id] = i
        if self._use_grid:
            self._grid_insert(i, cfg.x, cfg.y, cfg.tx_range)
        if self._sparse:
            self._ensure_sparse_slot(i)
            new_out, new_in = self._sparse_edge_sets(i)
            self._sparse_apply_row(i, new_out)
            self._sparse_apply_col(i, new_in)
        else:
            self._insert_edges_array(i)
            self._maybe_promote(n)
        self._version += 1
        self._touched[i] = self._version
        if _met.ENABLED:
            _met.REGISTRY.inc("core.join.sequential")

    def bulk_join(self, configs: Iterable[NodeConfig]) -> list[TopologyDelta]:
        """Admit a whole join round as one streaming batched mutation.

        Returns one ``join`` delta per config, with the same version
        numbers sequential :meth:`add_node` calls would assign, and
        leaves the graph in exactly the state they would (final
        adjacency depends only on the final configurations).  On the
        sparse core the round is committed in three streaming passes —
        geometry for every joiner, one grid-bucketed edge-set sweep
        (:meth:`_bulk_edge_sets`: co-located joiners share one candidate
        gather and one block distance pass), and one grouped
        structural/C2 commit per touched receiver — so admission cost
        scales with touched neighborhoods, never with N per event.
        A round that takes the population to ``_SPARSE_AUTO_MIN`` or
        beyond promotes the graph to the sparse core first; the array
        core (and trivial rounds) fall back to sequential
        :meth:`add_node`.

        :meth:`apply_round` routes all-join runs here; calling it
        directly is useful for flash-crowd initialization (build a
        10⁵-node network without 10⁵ separate candidate queries).
        """
        configs = list(configs)
        self._maybe_promote(len(self._ids) + len(configs))
        if not self._sparse or len(configs) < 2:
            deltas = []
            for cfg in configs:
                self.add_node(cfg)
                deltas.append(TopologyDelta("join", cfg.node_id, self._version))
            return deltas
        # Pre-validate: batched geometry must not fail half-written.
        live = set(self._index)
        for cfg in configs:
            if cfg.node_id in live:
                raise DuplicateNodeError(cfg.node_id)
            live.add(cfg.node_id)
        if _met.ENABLED:
            _met.REGISTRY.inc("core.join.bulk", len(configs))
            _met.REGISTRY.inc("core.join.bulk_batches")
        deltas = []
        dirty_slots: list[int] = []
        for cfg in configs:
            n = len(self._ids) + 1
            self._ensure_capacity(n)
            i = n - 1
            self._pos[i] = (cfg.x, cfg.y)
            self._range[i] = cfg.tx_range
            if cfg.tx_range > self._max_range:
                self._max_range = float(cfg.tx_range)
            self._ids.append(cfg.node_id)
            self._ida[i] = cfg.node_id
            self._index[cfg.node_id] = i
            self._ensure_sparse_slot(i)
            if self._use_grid:
                self._grid_insert(i, cfg.x, cfg.y, cfg.tx_range)
            dirty_slots.append(i)
            self._version += 1
            self._touched[i] = self._version
            deltas.append(TopologyDelta("join", cfg.node_id, self._version))
        # Fresh slots have empty rows, so the old sides are all empty.
        old = dict.fromkeys(dirty_slots, _EMPTY_SLOTS)
        new_out, new_in = self._bulk_edge_sets(dirty_slots)
        self._commit_dirty_rows(dirty_slots, set(dirty_slots), old, old, new_out, new_in)
        return deltas

    def remove_node(self, node_id: NodeId) -> NodeConfig:
        """Remove ``node_id`` and all incident edges; returns its config."""
        cfg = self.config(node_id)
        n = len(self._ids)
        i = self._index[node_id]
        if self._sparse:
            self._sparse_unlink(i)
        else:
            self._own_dense_blocks()
            # The receiver clique at i dissolves: every pair of its
            # in-neighbors loses one common-out-neighbor witness.  Pairs
            # involving i itself vanish with its row/column below.
            src = np.flatnonzero(self._adj[:n, i])
            if src.size > 1:
                self._c2[np.ix_(src, src)] -= 1
                self._c2[src, src] += 1
        self._vacate_slot(i)
        self._version += 1
        if i != n - 1:
            # Swap-delete moved the last slot's occupant into i.
            self._touched[i] = self._version
        return cfg

    def _vacate_slot(self, i: int) -> None:
        """Release slot ``i`` by swap-deleting the last slot into it.

        The shared tail of every removal: unlinks the slot from the
        spatial index and the id↔slot maps, moves the last slot's
        entries into ``i`` across **all** per-slot tables (positions,
        ranges, adjacency/C2 blocks or sparse rows/witness dicts, id
        arrays, grid membership), and clears the freed trailing slot.
        The caller must already have retracted the departing node's
        conflict contributions (C2 clique / sparse unlink) — this
        helper only renumbers and zeroes storage.
        """
        n = len(self._ids)
        node_id = self._ids[i]
        if self._grid is not None:
            self._own_grid()
            self._grid.remove(i)
        self._index.pop(node_id)
        last = n - 1
        adj, c2 = self._adj, self._c2
        if i != last:
            # Swap-delete: move the last slot into i.
            self._pos[i] = self._pos[last]
            self._range[i] = self._range[last]
            if self._sparse:
                self._sparse_rename_slot(last, i)
            else:
                adj[i, : last + 1] = adj[last, : last + 1]
                adj[: last + 1, i] = adj[: last + 1, last]
                adj[i, i] = False
                c2[i, : last + 1] = c2[last, : last + 1]
                c2[: last + 1, i] = c2[: last + 1, last]
                c2[i, i] = 0
            moved = self._ids[last]
            self._ids[i] = moved
            self._ida[i] = moved
            self._index[moved] = i
            if self._grid is not None:
                # The grid tracks slots, not ids: follow the
                # swap-delete renumbering of the last slot into i.
                self._grid.rename(last, i)
        self._ids.pop()
        if self._sparse:
            self._outr.pop()
            self._inr.pop()
            self._c2s.pop()
        else:
            adj[last, : last + 1] = False
            adj[: last + 1, last] = False
            c2[last, : last + 1] = 0
            c2[: last + 1, last] = 0

    def move_node(self, node_id: NodeId, x: float, y: float) -> None:
        """Relocate ``node_id``; recomputes its out- and in-edges."""
        i = self._idx(node_id)
        if not self._sparse:
            self._own_dense_blocks()
        self._pos[i] = (float(x), float(y))
        if self._grid is not None:
            self._own_grid()
            self._grid.move(i, float(x), float(y))
        if self._sparse:
            new_out, new_in = self._sparse_edge_sets(i)
            self._sparse_apply_row(i, new_out)
            self._sparse_apply_col(i, new_in)
        else:
            self._refresh_edges_array(i)
        self._version += 1
        self._touched[i] = self._version

    def set_range(self, node_id: NodeId, tx_range: float) -> None:
        """Change ``node_id``'s transmission range; recomputes out-edges.

        In-edges are unaffected: whether *others* reach this node depends
        only on their ranges.
        """
        if tx_range <= 0:
            raise ConfigurationError(f"tx_range must be positive, got {tx_range}")
        i = self._idx(node_id)
        if not self._sparse:
            self._own_dense_blocks()
        self._range[i] = float(tx_range)
        if tx_range > self._max_range:
            self._max_range = float(tx_range)
        if (
            self._use_grid
            and self._grid_cell is None
            and self._cell_live is not None
            and tx_range > _REGRID_FACTOR * self._cell_live
        ):
            self._cell_live = float(tx_range)
            if self._grid is not None:
                self._build_grid(self._cell_live)
        if self._sparse:
            self._sparse_apply_row(i, self._sparse_out_set(i))
        else:
            self._apply_row_delta_array(i, self._coverage_mask(i))
        self._version += 1
        self._touched[i] = self._version

    # ------------------------------------------------------------------
    # Event replay
    # ------------------------------------------------------------------
    def apply_event(self, event: "Event") -> TopologyDelta:
        """Apply one reconfiguration event; return its conflict delta.

        The returned :class:`TopologyDelta` captures the pre-event state
        handlers need (old range and old conflict set for power changes,
        the removed configuration for leaves), so per-strategy consumers
        never re-derive topology work.  This is the single mutation
        entry point of the replay pipeline: the event loop applies each
        event exactly once here and fans the delta out to every
        strategy's assignment state.
        """
        from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent

        if isinstance(event, JoinEvent):
            self.add_node(event.config)
            return TopologyDelta("join", event.node_id, self._version)
        if isinstance(event, LeaveEvent):
            removed = self.remove_node(event.node_id)
            return TopologyDelta("leave", event.node_id, self._version, removed_config=removed)
        if isinstance(event, MoveEvent):
            self.move_node(event.node_id, event.x, event.y)
            return TopologyDelta("move", event.node_id, self._version)
        if isinstance(event, PowerChangeEvent):
            old_range = self.range_of(event.node_id)
            old_conflicts = frozenset(self.conflict_neighbor_ids(event.node_id))
            self.set_range(event.node_id, event.new_range)
            kind = "power_increase" if event.new_range > old_range else "power_decrease"
            return TopologyDelta(
                kind,
                event.node_id,
                self._version,
                old_range=old_range,
                old_conflicts=old_conflicts,
            )
        raise InvalidEventError(f"unknown event type {type(event).__name__}")

    def replay_events(self, events: Iterable["Event"]) -> Iterator[TopologyDelta]:
        """Lazily apply ``events`` in order, yielding one delta each.

        The replayable conflict-delta stream: consumers iterate deltas
        while the graph advances underneath, so per-event derived state
        (conflict sets, the memo) is always for the just-applied event.
        """
        for event in events:
            yield self.apply_event(event)

    def apply_round(self, events: Iterable["Event"]) -> list[TopologyDelta]:
        """Apply one churn round of events with multi-event batching.

        Returns one :class:`TopologyDelta` per event, with the same
        kinds, node ids and version numbers :meth:`apply_event` would
        produce, and leaves the graph in **exactly** the state
        sequential application would (the final topology depends only on
        each live node's final configuration, which batching preserves).
        The intermediate graph states between the round's events are
        *not* materialized — callers that must observe them (per-event
        strategy reactions with sequential semantics) should stay on
        :meth:`replay_events`.

        Only the sparse core batches; the array core falls back to
        sequential application (identical results either way), and a
        round whose joins take the population to ``_SPARSE_AUTO_MIN``
        promotes the graph to the sparse core first.  Within
        the round, contiguous runs of join/move events are vectorized —
        one geometry/grid commit pass, one grid-bucketed edge-set sweep
        over the touched slots (pure join runs route through
        :meth:`bulk_join`), grouped edge flips, and a single fused C2
        reconciliation per touched receiver row, so a receiver hit by
        ``k`` events in the round reconciles once instead of ``k``
        times.  Leave and power-change events flush the run (a leave
        renumbers slots and must capture the departing configuration; a
        power delta must capture the pre-event conflict set) and apply
        sequentially.
        """
        events = list(events)
        from repro.events.base import JoinEvent, MoveEvent

        self._maybe_promote(len(self._ids) + sum(isinstance(ev, JoinEvent) for ev in events))
        if not self._sparse or len(events) < 2:
            return [self.apply_event(ev) for ev in events]

        deltas: list[TopologyDelta] = []
        batch: list[Event] = []
        for ev in events:
            if isinstance(ev, (JoinEvent, MoveEvent)):
                batch.append(ev)
            else:
                self._flush_round_batch(batch, deltas)
                deltas.append(self.apply_event(ev))
        self._flush_round_batch(batch, deltas)
        return deltas

    def replay_rounds(
        self, rounds: Iterable[Iterable["Event"]]
    ) -> Iterator[list[TopologyDelta]]:
        """Lazily apply round-structured events via :meth:`apply_round`.

        Yields the per-round delta lists; the graph advances one round
        at a time, so derived queries between yields observe the
        just-committed round (round-commit semantics).
        """
        for round_events in rounds:
            yield self.apply_round(round_events)

    # ------------------------------------------------------------------
    # Snapshots (warm starts)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialize the full topology state to a JSON-able dict.

        Captures everything :meth:`restore` needs to resume replay
        byte-identically: node configurations (in slot order, so the
        CA2 counter block stays aligned), the directed edge list, the
        incremental CA2 witness counters, the spatial grid's current
        cell size, and the topology version.  Derived caches (the query
        memo, the conflict-row cache) are rebuilt on demand and are not
        part of the state.

        Schema 2 additionally records the propagation model's name, so
        chained restores (snapshot → restore → replay → snapshot → …,
        the checkpoint-timeline pattern) cannot silently swap the edge
        semantics mid-chain: restoring a snapshot taken under a
        non-default model without supplying that model is an error, not
        a free-space reinterpretation.  Schema 3 stores the CA2
        counters as sparse ``[u, v, count]`` triples (row-major,
        ascending columns — the ``np.nonzero`` order) instead of the
        dense N×N list, so snapshot size scales with witnesses, not
        N².  The ``"dense"`` field is always ``False``: it records the
        retired dense re-derive mode, whose snapshots (``"dense":
        true``, ``c2 = None``) :meth:`restore` still accepts.  Snapshots
        are idempotent across the chain — re-snapshotting a restored
        graph reproduces the original dict byte-for-byte.
        """
        n = len(self._ids)
        if self._sparse:
            # Row-major edge order with ascending columns — exactly the
            # np.nonzero order of the dense block, so sparse snapshots
            # are byte-identical to array ones.  The per-slot dicts
            # hold ascending keys only transiently, so each row is
            # sorted on the way out.
            edges = [
                [r, int(c)] for r in range(n) for c in self._outr[r].view().tolist()
            ]
            c2: list | None = [
                [u, v, int(entries[v])]
                for u, entries in enumerate(self._c2s[:n])
                for v in sorted(entries)
            ]
        else:
            rows, cols = np.nonzero(self._adj[:n, :n])
            edges = [[int(r), int(c)] for r, c in zip(rows.tolist(), cols.tolist())]
            cr, cc = np.nonzero(self._c2[:n, :n])
            cv = self._c2[cr, cc]
            c2 = [
                [int(u), int(v), int(k)] for u, v, k in zip(cr.tolist(), cc.tolist(), cv.tolist())
            ]
        return {
            "schema": 3,
            "propagation": type(self._prop).__name__,
            "dense": False,
            "version": self._version,
            "explicit_cell": self._grid_cell,
            "grid_cell_size": self._cell_live if self._use_grid else None,
            "nodes": [
                [
                    int(self._ids[i]),
                    float(self._pos[i, 0]),
                    float(self._pos[i, 1]),
                    float(self._range[i]),
                ]
                for i in range(n)
            ],
            "edges": edges,
            "c2": c2,
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        propagation: PropagationModel | None = None,
    ) -> "AdHocDigraph":
        """Rebuild a graph from a :meth:`snapshot` dict.

        The restored graph continues exactly where the snapshot was
        taken: same slot layout, adjacency, CA2 counters, grid cell
        size and topology version, so subsequent events produce results
        byte-identical to the original instance's — and so do chained
        restores, where the restored graph is replayed further,
        re-snapshotted and restored again (pinned by
        ``tests/sim/test_timeline.py``).  Accepts schema 1 (pre-PR 5
        snapshots, which did not record the propagation model) and
        schema 2, which refuses to restore a snapshot taken under a
        non-default propagation model unless that model is supplied.

        Snapshots are core-independent: the conflict core follows the
        population, not state, so a snapshot written by either core
        restores into the core its population selects and re-snapshots
        byte-identically — pinned by ``tests/sim/test_array_replay.py``.
        Snapshots written by the retired dict and dense cores restore
        too; a dense one carries no CA2 counters (``c2 = None``), so
        they are re-derived from the adjacency.
        """
        if snapshot.get("kind") == "digraph-delta":
            raise ConfigurationError(
                "restore() was given a delta snapshot; deltas apply to a live "
                "graph at their base version via apply_delta()"
            )
        schema = snapshot.get("schema")
        if schema not in (1, 2, 3):
            raise ConfigurationError(f"unsupported digraph snapshot schema {schema!r}")
        recorded = snapshot.get("propagation")
        if propagation is None and recorded not in (None, FreeSpacePropagation.__name__):
            raise ConfigurationError(
                f"snapshot was taken under propagation model {recorded!r}; pass a "
                "matching model to restore() instead of defaulting to free space"
            )
        if propagation is not None and recorded not in (None, type(propagation).__name__):
            raise ConfigurationError(
                f"snapshot was taken under propagation model {recorded!r}, but "
                f"restore() was given {type(propagation).__name__!r}"
            )
        g = cls(propagation, grid_cell_size=snapshot["explicit_cell"])
        nodes = snapshot["nodes"]
        n = len(nodes)
        if n >= _SPARSE_AUTO_MIN:
            # A graph this large would have auto-promoted during replay;
            # restore straight into the sparse core rather than
            # allocating the O(N²) blocks just to convert them.
            g._activate_sparse()
        g._ensure_capacity(max(n, 1))
        for slot, (node_id, x, y, tx_range) in enumerate(nodes):
            g._pos[slot] = (x, y)
            g._range[slot] = tx_range
            g._ids.append(node_id)
            g._ida[slot] = node_id
            g._index[node_id] = slot
        triples = schema == 3
        if g._sparse:
            g._restore_sparse_state(n, snapshot["edges"], snapshot["c2"], triples=triples)
        else:
            for src, dst in snapshot["edges"]:
                g._adj[src, dst] = True
            if n:
                c2 = snapshot["c2"]
                if c2 is None:  # snapshot came from a dense-mode graph
                    a = g._adj[:n, :n]
                    g._c2[:n, :n] = (a.astype(np.int32) @ a.T.astype(np.int32))
                    np.fill_diagonal(g._c2[:n, :n], 0)
                elif triples:
                    arr = np.asarray(c2, dtype=np.int64).reshape(-1, 3)
                    g._c2[arr[:, 0], arr[:, 1]] = arr[:, 2]
                else:
                    g._c2[:n, :n] = np.asarray(c2, dtype=np.int32)
        if g._use_grid:
            cell = snapshot["grid_cell_size"]
            if cell is None and n:  # schema-1 and dense-mode snapshots lack it
                cell = float(g._range[:n].max())
            if cell is not None:
                g._cell_live = float(cell)
                if n >= _GRID_LAZY_MIN:
                    g._build_grid(g._cell_live)
        g._max_range = float(g._range[:n].max()) if n else 0.0
        g._version = snapshot["version"]
        # A freshly restored graph carries no per-slot mutation history,
        # so the earliest base version it can serve deltas from is its own.
        g._delta_floor = g._version
        return g

    def copy(self) -> "AdHocDigraph":
        """Deep copy (same propagation model object, copied arrays)."""
        g = AdHocDigraph.__new__(AdHocDigraph)
        g._prop = self._prop
        g._fs = self._fs
        g._sparse = self._sparse
        g._pos = self._pos.copy()
        g._range = self._range.copy()
        g._adj = None if self._adj is None else self._adj.copy()
        g._ids = list(self._ids)
        g._ida = self._ida.copy()
        g._index = dict(self._index)
        g._c2 = None if self._c2 is None else self._c2.copy()
        if self._sparse:
            g._outr = [row.copy() for row in self._outr]
            g._inr = [row.copy() for row in self._inr]
            g._c2s = [dict(d) for d in self._c2s]
        else:
            g._outr = g._inr = g._c2s = None
        g._use_grid = self._use_grid
        g._grid = None if self._grid is None else self._grid.copy()
        g._grid_cell = self._grid_cell
        g._cell_live = self._cell_live
        g._max_range = self._max_range
        g._version = self._version
        g._touched = dict(self._touched)
        g._delta_floor = self._delta_floor
        g._blocks_shared = False
        g._grid_shared = False
        g._rows_cow = False
        g._owned_slots = set()
        g._memo = {}
        g._memo_version = -1
        g._crow_cache = {}
        g._crow_version = -1
        return g

    def fork(self) -> "AdHocDigraph":
        """Copy-on-write fork: a clone sharing the heavy conflict state.

        Both siblings keep referencing the same adjacency/C2 blocks
        (array core), the same sparse rows and witness dicts (sparse
        core), and the same spatial grid; the first mutation on either
        side copies only what it touches — whole blocks for the array
        core, the individual rows of the mutated
        slots for the sparse core, the grid on its first geometric
        change.  Flat O(N) per-slot tables (positions, ranges, ids)
        are copied eagerly; the checkpoint-tree fork rate makes those
        copies noise next to the O(N²)/O(N+E) state being shared.

        Either sibling may keep mutating; results are byte-identical
        to a :meth:`copy`-based clone (pinned by the CoW aliasing
        tests).
        """
        g = AdHocDigraph.__new__(AdHocDigraph)
        g._prop = self._prop
        g._fs = self._fs
        g._sparse = self._sparse
        g._pos = self._pos.copy()
        g._range = self._range.copy()
        g._ids = list(self._ids)
        g._ida = self._ida.copy()
        g._index = dict(self._index)
        # Heavy state transfers by reference; CoW flags arm both sides.
        g._adj = self._adj
        g._c2 = self._c2
        g._owned_slots = set()
        if self._sparse:
            g._outr = list(self._outr)
            g._inr = list(self._inr)
            g._c2s = list(self._c2s)
            # Every row is shared again after a fork — including rows a
            # previous fork had already privatized on this side.
            self._rows_cow = True
            self._owned_slots = set()
            g._rows_cow = True
            g._blocks_shared = False
        else:
            g._outr = g._inr = g._c2s = None
            g._rows_cow = False
            self._blocks_shared = True
            g._blocks_shared = True
        g._use_grid = self._use_grid
        g._grid = self._grid
        if self._grid is not None:
            self._grid_shared = True
            g._grid_shared = True
        else:
            g._grid_shared = False
        g._grid_cell = self._grid_cell
        g._cell_live = self._cell_live
        g._max_range = self._max_range
        g._version = self._version
        g._touched = dict(self._touched)
        g._delta_floor = self._delta_floor
        g._memo = {}
        g._memo_version = -1
        g._crow_cache = {}
        g._crow_version = -1
        return g

    # ------------------------------------------------------------------
    # Delta snapshots (O(changes) checkpoints)
    # ------------------------------------------------------------------
    def delta_snapshot(self, base_version: int) -> dict:
        """Serialize only the state touched since ``base_version``.

        Returns a JSON-able delta that :meth:`apply_delta` replays on a
        graph sitting exactly at ``base_version`` (typically a
        :meth:`fork` taken at that version), reproducing this graph's
        state byte-identically — including the CA2 witness counters,
        which are *not* serialized: they are a pure function of the
        final adjacency, so the applier reconstructs them through the
        same incremental kernels live mutation uses.  Chained deltas
        compose: ``delta(v0→v1)`` then ``delta(v1→v2)`` lands on the
        same state as ``delta(v0→v2)``.

        The per-slot dirty journal is overwrite-to-latest, so any base
        at or above :attr:`delta_floor` (graph creation, or the version
        a restore landed on) can be served; earlier bases raise
        :class:`ConfigurationError` because the history no longer
        exists.
        """
        if base_version > self._version:
            raise ConfigurationError(
                f"delta base version {base_version} is ahead of the graph "
                f"(version {self._version})"
            )
        if base_version < self._delta_floor:
            raise ConfigurationError(
                f"delta base version {base_version} predates this graph's "
                f"history (serveable floor {self._delta_floor})"
            )
        n = len(self._ids)
        dirty = sorted(
            s for s, v in self._touched.items() if v > base_version and s < n
        )
        slots = []
        for s in dirty:
            if self._sparse:
                out = [int(c) for c in self._outr[s].view().tolist()]
                inn = [int(c) for c in self._inr[s].view().tolist()]
            else:
                out = np.flatnonzero(self._adj[s, :n]).tolist()
                inn = np.flatnonzero(self._adj[:n, s]).tolist()
            slots.append(
                [
                    s,
                    int(self._ids[s]),
                    float(self._pos[s, 0]),
                    float(self._pos[s, 1]),
                    float(self._range[s]),
                    out,
                    inn,
                ]
            )
        return {
            "schema": 1,
            "kind": "digraph-delta",
            "base_version": int(base_version),
            "version": int(self._version),
            "n": n,
            "cell": self._cell_live if self._use_grid else None,
            "slots": slots,
        }

    def apply_delta(self, delta: dict) -> None:
        """Replay a :meth:`delta_snapshot` onto this graph.

        The graph must sit exactly at the delta's recorded base version
        — anything else means the delta was cut against a different
        state and would silently diverge, so a mismatch raises
        :class:`ConfigurationError` naming both versions.

        Application is four-phased: (A) unlink every dirty slot and
        every slot beyond the delta's population through the live
        incremental kernels, leaving the untouched induced subgraph;
        (B) adjust the population tables; (C) commit the dirty slots'
        final configurations and bring the spatial grid to the
        recorded cell size — maintained in place (O(dirty) removes and
        inserts) when the cell size is unchanged, rebuilt from scratch
        otherwise; (D) apply each dirty slot's final out- and
        in-rows through the same kernels, which reconstruct the CA2
        counters exactly (they are a pure function of the final
        adjacency, and the kernels maintain the invariant at every
        step, so any application order lands on identical bytes).
        """
        if delta.get("kind") != "digraph-delta":
            raise ConfigurationError("apply_delta() expects a delta_snapshot() dict")
        base = delta["base_version"]
        if base != self._version:
            raise ConfigurationError(
                f"delta was cut against base version {base}, but this graph "
                f"is at version {self._version}"
            )
        n0 = len(self._ids)
        n1 = delta["n"]
        records = delta["slots"]
        if not records and n1 == n0:
            # Version-only advance (e.g. events that net out to nothing
            # never happen today, but an empty delta is still valid).
            self._version = delta["version"]
            return
        self._own_dense_blocks()
        version = delta["version"]
        dirty = [rec[0] for rec in records]
        dirty_set = set(dirty)
        for s in range(n0, n1):
            if s not in dirty_set:
                raise ConfigurationError(
                    f"corrupt delta: grown slot {s} has no dirty record"
                )

        # Grid plan: when the delta's recorded cell size matches the
        # live grid's, the grid is maintained in place — O(dirty)
        # removes and inserts — instead of rebuilt over all N slots
        # (the rebuild, not the kernels, dominated apply_delta at
        # large N).  A cell-size change (regrid on the producer) or an
        # absent grid falls back to the full rebuild below.
        cell = delta["cell"] if self._use_grid else None
        incremental = (
            self._use_grid
            and self._grid is not None
            and cell is not None
            and float(cell) == self._grid.cell_size
        )
        if incremental:
            self._own_grid()

        # Phase A — unlink: retract every edge incident to a slot whose
        # content changes (or vanishes), through the incremental kernels
        # so the CA2 counters stay exact for the surviving subgraph.
        unlink = sorted(set(s for s in dirty if s < n0) | set(range(n1, n0)))
        if self._sparse:
            for s in unlink:
                self._sparse_unlink(s)
        else:
            zeros = np.zeros(n0, dtype=bool)
            for s in unlink:
                self._apply_row_delta_array(s, zeros)
                self._apply_col_delta_array(s, zeros)
        for s in unlink:
            if incremental:
                self._grid.remove(s)
            self._index.pop(self._ids[s], None)

        # Phase B — population: shrink or grow the per-slot tables.
        if n1 < n0:
            del self._ids[n1:]
            if self._sparse:
                del self._outr[n1:]
                del self._inr[n1:]
                del self._c2s[n1:]
        elif n1 > n0:
            self._ensure_capacity(n1)
            self._ids.extend(0 for _ in range(n1 - n0))
            if self._sparse:
                self._ensure_sparse_slot(n1 - 1)

        # Phase C — configurations: commit each dirty slot's final
        # (id, position, range) and rebuild the spatial grid.
        for s, node_id, x, y, r, _out, _inn in records:
            if s >= n1:
                raise ConfigurationError(
                    f"corrupt delta: dirty slot {s} beyond population {n1}"
                )
            self._pos[s] = (x, y)
            self._range[s] = r
            self._ids[s] = node_id
            self._ida[s] = node_id
            self._index[node_id] = s
            self._touched[s] = version
            if incremental:
                self._grid.insert(s, float(x), float(y))
        self._max_range = float(self._range[:n1].max()) if n1 else 0.0
        if self._use_grid:
            self._cell_live = None if cell is None else float(cell)
        if self._use_grid and not incremental:
            if self._cell_live is not None and n1 and not (
                n1 < _GRID_LAZY_MIN and self._grid is None
            ):
                self._build_grid(self._cell_live)
            else:
                self._grid = None
                self._grid_shared = False

        # Phase D — edges: apply each dirty slot's final out-row and
        # in-row through the live kernels.  They diff against current
        # state, so interleaved dirty-dirty edges commit exactly once
        # no matter the order.
        if self._sparse:
            for s, _nid, _x, _y, _r, out, inn in records:
                self._sparse_apply_row(s, np.asarray(out, dtype=np.intp))
                self._sparse_apply_col(s, np.asarray(inn, dtype=np.intp))
        else:
            for s, _nid, _x, _y, _r, out, inn in records:
                row = np.zeros(n1, dtype=bool)
                row[out] = True
                col = np.zeros(n1, dtype=bool)
                col[inn] = True
                self._apply_row_delta_array(s, row)
                self._apply_col_delta_array(s, col)
        self._version = version

    def state_nbytes(self) -> int:
        """Rough in-memory footprint of the conflict state, in bytes.

        Used by checkpoint eviction budgets; counts the heavy state
        (adjacency/C2 blocks or sparse rows + witness dicts) plus the
        flat per-slot tables, not Python object overhead.
        """
        total = self._pos.nbytes + self._range.nbytes + self._ida.nbytes
        if not self._sparse:
            return total + self._adj.nbytes + self._c2.nbytes
        for s in range(len(self._ids)):
            total += self._outr[s].data.nbytes + self._inr[s].data.nbytes
            total += 64 * len(self._c2s[s])
        return total

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------
    def conflict_neighbor_ids(self, node_id: NodeId) -> set[NodeId]:
        """Nodes conflicting with ``node_id`` under CA1 ∪ CA2.

        CA1: an edge in either direction; CA2: a common out-neighbor.
        This is the hot query of every recoding strategy; it reads the
        maintained adjacency and CA2 counters.  Results are memoized per
        topology version, so replaying one event against many
        strategies derives each conflict set once.
        """
        memo = self._query_memo()
        cached = memo.get(node_id)
        if _met.ENABLED:
            _met.REGISTRY.inc("core.memo.miss" if cached is None else "core.memo.hit")
        if cached is None:
            i = self._idx(node_id)
            n = len(self._ids)
            if self._sparse:
                cached = frozenset(self._ida[self._sparse_conflict_slots(i)].tolist())
                memo[node_id] = cached
                return set(cached)
            a = self._adj
            mask = a[i, :n] | a[:n, i] | (self._c2[i, :n] > 0)
            mask[i] = False
            cached = frozenset(self._ida[:n][mask].tolist())
            memo[node_id] = cached
        return set(cached)

    def conflict_slots(self, slot: int) -> np.ndarray:
        """Slots conflicting with ``slot`` under CA1 ∪ CA2 (sorted).

        The slot-native counterpart of :meth:`conflict_neighbor_ids`:
        on the sparse core it unions the out-row, in-row and the C2
        witness keys — O(deg) work with no N-wide mask — which is what
        lets large-N event loops query conflicts at constant density
        without touching O(N) memory per query.  The array core derives
        it from its row masks; membership is identical.
        """
        if self._sparse:
            return self._sparse_conflict_slots(slot)
        n = len(self._ids)
        a = self._adj
        mask = a[slot, :n] | a[:n, slot] | (self._c2[slot, :n] > 0)
        mask[slot] = False
        return np.flatnonzero(mask)

    def conflict_adjacency(self) -> tuple[list[NodeId], np.ndarray]:
        """``(ids, C)`` — the symmetric CA1 ∪ CA2 conflict matrix.

        ``ids`` is ascending; ``C`` is a copy safe to mutate.  It is
        assembled from the maintained CA2 counters in O(N²) boolean work
        (no matmul).  Whole-network consumers (the BBB
        recolor, clique bounds) use this instead of
        ``conflict_matrix(adjacency())``.  The assembled matrix is
        memoized per topology version (callers receive fresh copies).
        """
        memo = self._query_memo()
        cached = memo.get(_CONFLICT_ADJ_KEY)
        if cached is None:
            n = len(self._ids)
            order = np.argsort(self._ida[:n])
            ids = self._ida[:n][order].tolist()
            if self._sparse:
                a = self._adj_block()
                block = a | a.T
                for u, entries in enumerate(self._c2s):
                    if entries:
                        block[u, list(entries)] = True
                np.fill_diagonal(block, False)
            else:
                a = self._adj[:n, :n]
                block = a | a.T | (self._c2[:n, :n] > 0)
                np.fill_diagonal(block, False)
            cached = (ids, block[np.ix_(order, order)])
            memo[_CONFLICT_ADJ_KEY] = cached
        ids, block = cached
        return list(ids), block.copy()

    # ------------------------------------------------------------------
    # Array-native query surface
    # ------------------------------------------------------------------
    # Slot-indexed variants of the id-based queries above.  A *slot* is
    # the node's row index in the contiguous storage blocks (``_pos``,
    # ``_adj``, ``_c2``); slots stay dense 0..n-1 under swap-delete, so
    # a node's slot is stable only between removals.  Batch consumers
    # (the bench's vectorized event loop, array color lanes) translate
    # ids to slots once per event and then work purely on index arrays.

    def slot_of(self, node_id: NodeId) -> int:
        """The storage slot of ``node_id`` (valid until the next removal)."""
        return self._idx(node_id)

    def slot_ids(self) -> np.ndarray:
        """Node ids by slot — ``slot_ids()[s]`` is slot ``s``'s id.

        A read-only int64 view over live slots; copy before storing.
        """
        n = len(self._ids)
        out = self._ida[:n]
        out.flags.writeable = False
        return out

    def out_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s out-neighbors (ascending index array)."""
        if self._sparse:
            return self._outr[slot].values()
        n = len(self._ids)
        return self._adj[slot, :n].nonzero()[0]

    def in_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s in-neighbors (ascending index array)."""
        if self._sparse:
            return self._inr[slot].values()
        n = len(self._ids)
        return self._adj[:n, slot].nonzero()[0]

    def undirected_slots(self, slot: int) -> np.ndarray:
        """Slots with an edge to or from ``slot`` (ascending index array).

        The slot form of :meth:`undirected_neighbors`: one row/column
        compare on the array core, a merge of the two O(deg) rows on the
        sparse core.
        """
        if self._sparse:
            return np.union1d(self._outr[slot].view(), self._inr[slot].view())
        n = len(self._ids)
        return np.flatnonzero(self._adj[slot, :n] | self._adj[:n, slot])

    def v1_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s closed in-neighborhood (``slot`` + in-neighbors).

        The "one-hop upstream vicinity" every event handler revisits:
        the nodes whose conflict rows an event at ``slot`` can change.
        Fused so the hot loop pays one column copy, one bit set and one
        ``nonzero`` instead of an ``in_slots`` + ``np.append`` round trip
        (sparse core: one sorted insertion into the in-row copy).
        """
        if self._sparse:
            row = self._inr[slot].view()
            k = len(row)
            pos = int(row.searchsorted(slot))
            out = np.empty(k + 1, dtype=np.intp)
            out[:pos] = row[:pos]
            out[pos] = slot
            out[pos + 1 :] = row[pos:]
            return out
        n = len(self._ids)
        col = self._adj[:n, slot].copy()
        col[slot] = True
        return col.nonzero()[0]

    def conflict_masks(self, slots: np.ndarray) -> np.ndarray:
        """Batched CA1 ∪ CA2 conflict rows for many slots at once.

        Returns a ``(k, n)`` boolean block whose row ``j`` marks the
        slots conflicting with ``slots[j]`` (diagonal cleared).  One
        fused boolean expression over the adjacency and witness blocks
        replaces ``k`` separate :meth:`conflict_neighbor_ids` calls —
        the array core's replacement for the per-node frozenset query
        in strategy inner loops.  The sparse core scatters its O(deg)
        conflict rows into the requested block (the result is O(k·N) by
        contract — large-N consumers should iterate
        :meth:`conflict_slots` instead).
        """
        s = np.asarray(slots, dtype=np.intp)
        n = len(self._ids)
        if self._sparse:
            rows = np.zeros((len(s), n), dtype=bool)
            for j, slot in enumerate(s.tolist()):
                rows[j, self._sparse_conflict_slots(slot)] = True
            return rows
        a = self._adj
        rows = a[s, :n] | a[:n, s].T | (self._c2[s, :n] > 0)
        rows[_iota(len(s)), s] = False
        return rows

    def conflict_slot_lists(self, slots: np.ndarray) -> list[np.ndarray]:
        """Per-slot CA1 ∪ CA2 conflict arrays for many slots in one pass.

        Returns ``[conflict_slots(s) for s in slots]`` — same membership
        and the same sorted-ascending order — but on the sparse core the
        rows are **read-only and version-cached**: between two topology
        mutations every slot's row is derived at most once (neighboring
        V1 queries overlap heavily, so a round-commit consumer touching
        each slot ≈deg times pays the derivation once), and uncached
        slots are answered by **one** sort-and-dedup pass over their
        concatenated rows instead of one ``np.unique`` per slot — each
        slot's members are offset into a disjoint ``[j·n, (j+1)·n)``
        band, the union is deduplicated globally, and band boundaries
        are found with a single ``searchsorted``.  This is the batched
        V1 query of the large-N event loop; at ≈20 members per call the
        per-slot query overhead was a top-three profile line before
        batching.  Do not mutate the returned arrays (they are frozen
        and shared across calls); the array core falls back to the
        per-slot query — identical membership either way.
        """
        s = np.asarray(slots, dtype=np.intp)
        if not self._sparse or not len(s):
            return [self.conflict_slots(int(u)) for u in s.tolist()]
        cache = self._crow_cache
        if self._crow_version != self._version:
            cache = self._crow_cache = {}
            self._crow_version = self._version
        requested = s.tolist()
        members = [u for u in dict.fromkeys(requested) if u not in cache]
        if _met.ENABLED:
            _met.REGISTRY.inc("core.crow_cache.hit", len(requested) - len(members))
            _met.REGISTRY.inc("core.crow_cache.miss", len(members))
        if not members:
            return [cache[u] for u in requested]
        outr, inr, c2s = self._outr, self._inr, self._c2s
        n = len(self._ids)
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

    def undirected_hop_distances(self, src: NodeId) -> dict[NodeId, int]:
        """BFS hop counts from ``src`` over the undirected support.

        Unreachable nodes are absent from the result.  Used for the
        k-hop vicinities of the CP strategy and for the >= 5 hops apart
        condition of parallel joins (Theorem 4.1.10).
        """
        n = len(self._ids)
        i = self._idx(src)
        dist = np.full(n, -1, dtype=np.int64)
        dist[i] = 0
        if self._sparse:
            # Frontier BFS over the CSR rows: O(E reached), no dense block.
            frontier_slots = [i]
            hops = 0
            while frontier_slots:
                hops += 1
                parts = []
                for u in frontier_slots:
                    parts.append(self._outr[u].view())
                    parts.append(self._inr[u].view())
                reached = np.unique(np.concatenate(parts)) if parts else _EMPTY_SLOTS
                fresh = reached[dist[reached] < 0]
                dist[fresh] = hops
                frontier_slots = fresh.tolist()
            return {self._ids[j]: int(dist[j]) for j in range(n) if dist[j] >= 0}
        undirected = self._adj[:n, :n] | self._adj[:n, :n].T
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        hops = 0
        while frontier.any():
            hops += 1
            reached = undirected[frontier].any(axis=0)
            fresh = reached & (dist < 0)
            dist[fresh] = hops
            frontier = fresh
        return {self._ids[j]: int(dist[j]) for j in range(n) if dist[j] >= 0}

    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` (test/example interop only)."""
        import networkx as nx

        g = nx.DiGraph()
        for cfg in self.configs():
            g.add_node(cfg.node_id, x=cfg.x, y=cfg.y, tx_range=cfg.tx_range)
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _query_memo(self) -> dict:
        """The derived-query memo for the current topology version."""
        if self._memo_version != self._version:
            self._memo = {}
            self._memo_version = self._version
        return self._memo

    def _idx(self, node_id: NodeId) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _ensure_capacity(self, needed: int) -> None:
        cap = len(self._range)
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        pos = np.zeros((new_cap, 2), dtype=np.float64)
        rng = np.zeros(new_cap, dtype=np.float64)
        n = len(self._ids)
        pos[:n] = self._pos[:n]
        rng[:n] = self._range[:n]
        ida = np.zeros(new_cap, dtype=np.int64)
        ida[:n] = self._ida[:n]
        self._pos, self._range, self._ida = pos, rng, ida
        if not self._sparse:
            adj = np.zeros((new_cap, new_cap), dtype=bool)
            adj[:n, :n] = self._adj[:n, :n]
            self._adj = adj
            c2 = np.zeros((new_cap, new_cap), dtype=np.int32)
            c2[:n, :n] = self._c2[:n, :n]
            self._c2 = c2

    # -- spatial grid ---------------------------------------------------
    def _grid_insert(self, slot: int, x: float, y: float, tx_range: float) -> None:
        """Track ``slot`` in the spatial index (maybe lazily).

        While the population is below ``_GRID_LAZY_MIN`` only the
        cell-size scalar is advanced — per-node upkeep would cost more
        than the full scans the small graph uses anyway — and the grid
        is bulk-built from the position block on first need.
        """
        if self._grid_cell is not None:
            if self._cell_live is None:
                self._cell_live = self._grid_cell  # explicit cell size wins
        else:
            live = self._cell_live
            if live is None or tx_range > _REGRID_FACTOR * live:
                # Regrid rule: a new maximum range outgrowing the cell
                # re-cells the grid so disc queries stay O(1) cells
                # (e.g. the paper's raisefactor sweep).
                self._cell_live = float(tx_range)
        if self._grid is None:
            if len(self._ids) < _GRID_LAZY_MIN:
                return
            self._build_grid(self._cell_live)
            return
        self._own_grid()
        self._grid.insert(slot, float(x), float(y))
        if self._grid.cell_size != self._cell_live:
            self._build_grid(self._cell_live)

    def _build_grid(self, cell: float) -> None:
        """(Re)build the spatial index over all live slots at ``cell`` size."""
        grid = SlotGridIndex(cell)
        for slot in range(len(self._ids)):
            grid.insert(slot, float(self._pos[slot, 0]), float(self._pos[slot, 1]))
        self._grid = grid
        self._grid_shared = False

    def _candidate_slots(self, i: int, radius: float) -> np.ndarray | None:
        """Slots of nodes within ``radius`` of slot ``i`` (grid superset).

        ``None`` means the grid is unavailable (non-disc propagation, or
        a population still below the lazy-build threshold) and the
        caller must scan all N.
        """
        if not self._use_grid or self._grid is None:
            return None
        x, y = self._pos[i]
        return self._grid.candidate_slots(float(x), float(y), radius)

    # -- edge-mask computation ------------------------------------------
    def _coverage_mask(self, i: int) -> np.ndarray:
        """Out-edge mask of slot ``i`` (which targets does it cover?)."""
        n = len(self._ids)
        r = float(self._range[i])
        cand = self._candidate_slots(i, r)
        if cand is None:
            mask = self._prop.coverage(self._pos[i], r, self._pos[:n]).copy()
        else:
            mask = np.zeros(n, dtype=bool)
            if cand.size:
                covered = self._prop.coverage(self._pos[i], r, self._pos[cand])
                mask[cand[covered]] = True
        mask[i] = False
        return mask

    # -- array-core edge recomputation ----------------------------------
    def _refresh_edges_array(self, i: int) -> None:
        """Recompute slot ``i``'s out- and in-edges (array fast path).

        One candidate fetch at the current maximum range (any node that
        covers or is covered by ``i`` lies within it) and one pairwise
        distance pass answer both directions, then the batched CA1/CA2
        delta appliers fold the changes into the adjacency block and
        witness counters.
        """
        n = len(self._ids)
        cand = self._candidate_slots_array(i)
        free_space = self._fs
        if cand is None:
            if free_space:
                # Inline free-space kernel: identical arithmetic to
                # within_disc / covered_by (same subtraction, einsum and
                # closed-disc compares), one distance pass, no model
                # dispatch.
                diff = self._pos[:n] - self._pos[i]
                d2 = np.einsum("ij,ij->i", diff, diff)
                r = float(self._range[i])
                new_row = d2 <= r * r
                rr = self._range[:n]
                new_col = d2 <= rr * rr
            else:
                cov, covby = pairwise_masks(
                    self._prop, self._pos[i], float(self._range[i]), self._pos[:n], self._range[:n]
                )
                new_row = np.asarray(cov, dtype=bool).copy()
                new_col = np.asarray(covby, dtype=bool).copy()
        else:
            new_row = np.zeros(n, dtype=bool)
            new_col = np.zeros(n, dtype=bool)
            if cand.size:
                if free_space:
                    diff = self._pos[cand] - self._pos[i]
                    d2 = np.einsum("ij,ij->i", diff, diff)
                    r = float(self._range[i])
                    cov = d2 <= r * r
                    rr = self._range[cand]
                    covby = d2 <= rr * rr
                else:
                    cov, covby = pairwise_masks(
                        self._prop,
                        self._pos[i],
                        float(self._range[i]),
                        self._pos[cand],
                        self._range[cand],
                    )
                new_row[cand[cov]] = True
                new_col[cand[covby]] = True
        new_row[i] = False
        new_col[i] = False
        self._apply_row_delta_array(i, new_row)
        self._apply_col_delta_array(i, new_col)

    def _insert_edges_array(self, i: int) -> None:
        """Create slot ``i``'s edges on join (array fast path).

        The join specialization of :meth:`_refresh_edges_array`: the
        fresh slot's row, column and witness counters are all zero, so
        the old/new comparisons degenerate — every out-edge contributes
        ``+1`` (the witness counts with ``i`` are straight sums over the
        receivers' columns) and the in-neighbor clique is asserted
        without a retraction.  Same arithmetic as the general deltas on
        an empty old state, so the result is byte-identical.
        """
        if not self._fs or self._candidate_slots_array(i) is not None:
            self._refresh_edges_array(i)
            return
        n = len(self._ids)
        diff = self._pos[:n] - self._pos[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = float(self._range[i])
        new_row = d2 <= r * r
        rr = self._range[:n]
        new_col = d2 <= rr * rr
        new_row[i] = False
        new_col[i] = False
        a = self._adj
        c2 = self._c2
        idx = new_row.nonzero()[0]
        if idx.size:
            cnt = a[:n, idx].sum(axis=1, dtype=np.int32)
            # cnt[i] is 0 by construction: row i is still empty.
            c2[i, :n] = cnt
            c2[:n, i] = cnt
        a[i, :n] = new_row
        new = new_col.nonzero()[0]
        if new.size:
            c2[new[:, None], new] += 1
            c2[new, new] -= 1
        a[:n, i] = new_col

    def _candidate_slots_array(self, i: int) -> np.ndarray | None:
        """Candidate fetch for the array refresh; ``None`` = scan all N.

        Uses the cached maximum range as the radius (covers both edge
        directions) and tells the grid to bail out to a full scan when
        at least 3/4 of all slots fall in the query box — at that
        density the gather costs more than testing everyone, and the
        masks are identical either way (grid candidates are supersets).
        When the whole population occupies no more cells than a single
        query ring (~5×5 with the guard), no query can be selective and
        the grid is skipped outright.
        """
        if not self._use_grid or self._grid is None:
            return None
        if self._grid.cell_count <= _MIN_SELECTIVE_CELLS:
            return None
        n = len(self._ids)
        x, y = self._pos[i]
        cand = self._grid.candidate_slots(
            float(x), float(y), self._max_range, cutoff=max(1, (3 * n) // 4)
        )
        if _met.ENABLED:
            _count_grid_result(cand)
        return cand

    def _apply_row_delta_array(self, i: int, new_row: np.ndarray) -> None:
        """Batched out-edge replacement for slot ``i`` (array core).

        When ``i`` starts (stops) covering a receiver ``w``, every other
        in-neighbor of ``w`` gains (loses) one CA2 witness with ``i``.
        The update is fused into a single signed matvec: gather the
        changed receivers' in-neighbor columns once and multiply by ±1
        per receiver.  Exact integer arithmetic, so the counters stay
        exact.
        """
        n = len(self._ids)
        a = self._adj
        old_row = a[i, :n]
        idx = (old_row != new_row).nonzero()[0]
        if idx.size:
            sign = np.where(new_row[idx], np.int32(1), np.int32(-1))
            cnt = a[:n, idx] @ sign
            cnt[i] = 0  # no (i, i) pair; i's own row is the one changing
            c2 = self._c2
            c2[i, :n] += cnt
            c2[:n, i] += cnt
        a[i, :n] = new_row

    def _apply_col_delta_array(self, i: int, new_col: np.ndarray) -> None:
        """Batched in-edge replacement for slot ``i`` (array core).

        The in-neighbor set of ``i`` changes from ``old`` to ``new``;
        a pair ``(u, v)`` holds a CA2 witness at ``i`` iff both are
        in-neighbors, so the counter block update is "retract the old
        clique, assert the new one": ``C2[old × old] -= 1`` then
        ``C2[new × new] += 1``.  Pairs kept in both cancel exactly
        (integer adds commute), so the result is byte-identical to any
        finer-grained delta, with just two broadcast writes plus two
        diagonal corrections (the diagonal stays 0 by convention).
        """
        n = len(self._ids)
        a = self._adj
        old_col = a[:n, i]
        changed = old_col != new_col
        if changed.any():
            c2 = self._c2
            old = old_col.nonzero()[0]
            new = new_col.nonzero()[0]
            if old.size:
                c2[old[:, None], old] -= 1
                c2[old, old] += 1
            if new.size:
                c2[new[:, None], new] += 1
                c2[new, new] -= 1
        a[:n, i] = new_col

    # -- sparse (CSR rows) core -----------------------------------------
    def _activate_sparse(self) -> None:
        """Switch the core flags and storage to sparse (no data carried)."""
        self._sparse = True
        self._blocks_shared = False
        self._adj = None
        self._c2 = None
        # CSR-style per-slot rows and per-slot CA2 witness dicts
        # (key: other slot, value: |out(u) ∩ out(v)| > 0).
        self._outr = []
        self._inr = []
        self._c2s = []

    def _ensure_sparse_slot(self, slot: int) -> None:
        """Grow the per-slot row/witness tables to include ``slot``."""
        outr, inr, c2s = self._outr, self._inr, self._c2s
        while len(outr) <= slot:
            if self._rows_cow:
                # Fresh rows are private to this graph, never shared
                # with a fork sibling.
                self._owned_slots.add(len(outr))
            outr.append(_SlotRow())
            inr.append(_SlotRow())
            c2s.append({})

    def _maybe_promote(self, population: int) -> None:
        """Switch to the sparse core once ``population`` reaches the threshold.

        ``population`` is the node count the graph has, or — for a
        batched round — the most it can reach before the round ends.
        """
        if not self._sparse and population >= _SPARSE_AUTO_MIN:
            self._promote_to_sparse()

    def _promote_to_sparse(self) -> None:
        """Convert the dense array-core blocks into sparse rows in place.

        Triggered by :meth:`_maybe_promote` when an array-core graph
        reaches ``_SPARSE_AUTO_MIN`` nodes: from here on the
        O(N²) blocks would dominate memory and every C2 delta would
        touch full rows.  The conversion is pure re-representation —
        queries, snapshots and subsequent events are byte-identical to
        both the array core (had it continued) and a from-scratch
        sparse graph.  The slot grid is already slot-keyed and carries
        over untouched.
        """
        n = len(self._ids)
        a, c2 = self._adj, self._c2
        self._activate_sparse()
        if not n:
            return
        self._ensure_sparse_slot(n - 1)
        for i in range(n):
            self._outr[i].set_sorted(np.flatnonzero(a[i, :n]))
            self._inr[i].set_sorted(np.flatnonzero(a[:n, i]))
        rows, cols = np.nonzero(c2[:n, :n])
        vals = c2[rows, cols]
        c2s = self._c2s
        for u, v, count in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            c2s[u][v] = count

    def _restore_sparse_state(
        self, n: int, edges: list, c2: list | None, *, triples: bool = False
    ) -> None:
        """Populate the sparse rows/witness dicts from snapshot fields.

        ``triples`` selects the schema-3 form (``[u, v, count]`` rows)
        — it cannot be sniffed from the payload, because a dense N×N
        list at ``n == 3`` is shape-identical to a triple list.
        """
        if not n:
            return
        self._ensure_sparse_slot(n - 1)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for src, dst in edges:
            out_lists[src].append(dst)
            in_lists[dst].append(src)
        for slot in range(n):
            # snapshot edges are row-major with ascending columns
            self._outr[slot].set_sorted(np.asarray(out_lists[slot], dtype=np.intp))
            self._inr[slot].set_sorted(np.asarray(sorted(in_lists[slot]), dtype=np.intp))
        c2s = self._c2s
        if c2 is None:
            # Dense-mode snapshot (no counters recorded): re-derive them
            # from the in-rows — each receiver's in-clique contributes
            # one witness per ordered pair.
            for slot in range(n):
                members = self._inr[slot].view().tolist()
                for a in members:
                    da = c2s[a]
                    for b in members:
                        if b != a:
                            _c2_inc(da, b)
            return
        if triples:
            for u, v, count in c2:
                c2s[u][v] = int(count)
            return
        arr = np.asarray(c2, dtype=np.int64)
        rows, cols = np.nonzero(arr)
        vals = arr[rows, cols]
        for u, v, count in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            c2s[u][v] = int(count)

    def _adj_block(self) -> np.ndarray:
        """Densify the sparse out-rows into an (n, n) boolean block.

        O(N²) by contract — only whole-network consumers (``adjacency``,
        ``conflict_adjacency``, snapshots) call it, never per-event paths.
        """
        n = len(self._ids)
        block = np.zeros((n, n), dtype=bool)
        for i in range(n):
            block[i, self._outr[i].view()] = True
        return block

    def _sparse_candidates(self, i: int, radius: float) -> np.ndarray | None:
        """Grid candidate gather for slot ``i``; ``None`` = full scan.

        Gathers the occupied cell buckets near ``i`` and bails out to a
        full scan the moment the running count reaches the 3/4-of-N
        selectivity cutoff — so an unselective query never concatenates
        (and a selective one never allocates an N-wide mask; the exact
        filter runs on the gathered index array directly).  Requires the
        propagation model to evaluate targets elementwise
        (``elementwise`` contract in ``topology/propagation.py``), which
        every disc-bounded model satisfies.
        """
        if not self._use_grid or self._grid is None:
            return None
        grid = self._grid
        if grid.cell_count <= _MIN_SELECTIVE_CELLS:
            return None
        if not getattr(self._prop, "elementwise", True):
            return None
        n = len(self._ids)
        cutoff = max(1, (3 * n) // 4)
        x, y = self._pos[i]
        cand = grid.candidate_slots(float(x), float(y), radius, cutoff=cutoff)
        if _met.ENABLED:
            _count_grid_result(cand)
        return cand

    def _sparse_edge_sets(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Final (out, in) slot sets of ``i`` under the current geometry.

        Sorted ascending, ``i`` excluded.  One candidate gather at the
        cached maximum range answers both directions (any node that
        covers or is covered by ``i`` lies within it), mirroring the
        array core's fused refresh; the fallback full scan computes the
        same membership, so downstream deltas are identical either way.
        """
        n = len(self._ids)
        r = float(self._range[i])
        cand = self._sparse_candidates(i, self._max_range)
        if cand is None:
            pos = self._pos[:n]
            if self._fs:
                diff = pos - self._pos[i]
                d2 = np.einsum("ij,ij->i", diff, diff)
                cov = d2 <= r * r
                rr = self._range[:n]
                covby = d2 <= rr * rr
            else:
                cov, covby = pairwise_masks(self._prop, self._pos[i], r, pos, self._range[:n])
                cov = np.asarray(cov, dtype=bool).copy()
                covby = np.asarray(covby, dtype=bool).copy()
            cov[i] = False
            covby[i] = False
            return np.flatnonzero(cov), np.flatnonzero(covby)
        if not cand.size:
            return _EMPTY_SLOTS.copy(), _EMPTY_SLOTS.copy()
        if self._fs:
            diff = self._pos[cand] - self._pos[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            cov = d2 <= r * r
            rr = self._range[cand]
            covby = d2 <= rr * rr
        else:
            cov, covby = pairwise_masks(
                self._prop, self._pos[i], r, self._pos[cand], self._range[cand]
            )
        out = cand[cov]
        inn = cand[covby]
        out = np.sort(out[out != i])
        inn = np.sort(inn[inn != i])
        return out, inn

    def _bulk_edge_sets(
        self, slots: list[int]
    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """Final (out, in) edge sets of many slots from one bucketed sweep.

        The streaming kernel behind :meth:`bulk_join` and the round
        batcher: the dirty slots are grouped by grid cell, each occupied
        cell makes **one** candidate-window gather
        (:meth:`SlotGridIndex.candidate_slots_cell`) and **one** block
        distance pass (:func:`block_masks`) for all its members, and the
        per-member exact filters cut the shared superset down — so a
        whole join round streams cell by cell without materializing a
        per-node candidate array per event, and co-located joiners share
        their gather.  Every subtraction and comparison is the same
        IEEE-754 operation :meth:`_sparse_edge_sets` performs for the
        corresponding pair, and both candidate windows are supersets of
        the exact disc, so the filtered membership is byte-identical to
        the per-slot path.  Unselective cells (the 3n/4 cutoff),
        non-elementwise models and gridless graphs all fall back to that
        path.
        """
        new_out: dict[int, np.ndarray] = {}
        new_in: dict[int, np.ndarray] = {}
        grid = self._grid
        if (
            not self._use_grid
            or grid is None
            or grid.cell_count <= _MIN_SELECTIVE_CELLS
            or not getattr(self._prop, "elementwise", True)
        ):
            for i in slots:
                new_out[i], new_in[i] = self._sparse_edge_sets(i)
            return new_out, new_in
        n = len(self._ids)
        cutoff = max(1, (3 * n) // 4)
        radius = self._max_range
        pos, rng = self._pos, self._range
        groups: dict[tuple[int, int], list[int]] = {}
        for i in slots:
            groups.setdefault(grid.cell_of(i), []).append(i)
        for (cx, cy), members in groups.items():
            cand = grid.candidate_slots_cell(cx, cy, radius, cutoff=cutoff)
            if _met.ENABLED:
                _count_grid_result(cand)
            if cand is None:
                for i in members:
                    new_out[i], new_in[i] = self._sparse_edge_sets(i)
                continue
            g = np.asarray(members, dtype=np.intp)
            ps = pos[g]
            rs = rng[g]
            cps = pos[cand]
            crs = rng[cand]
            if self._fs:
                diff = cps[None, :, :] - ps[:, None, :]
                d2 = np.einsum("gcj,gcj->gc", diff, diff)
                cov = d2 <= (rs * rs)[:, None]
                covby = d2 <= (crs * crs)[None, :]
            else:
                cov, covby = block_masks(self._prop, ps, rs, cps, crs)
            for j, i in enumerate(members):
                o = cand[cov[j]]
                new_out[i] = np.sort(o[o != i])
                s = cand[covby[j]]
                new_in[i] = np.sort(s[s != i])
        return new_out, new_in

    def _sparse_out_set(self, i: int) -> np.ndarray:
        """Final out slot set of ``i`` only (power changes: in-edges fixed)."""
        n = len(self._ids)
        r = float(self._range[i])
        cand = self._sparse_candidates(i, r)
        if cand is None:
            mask = np.asarray(
                self._prop.coverage(self._pos[i], r, self._pos[:n]), dtype=bool
            ).copy()
            mask[i] = False
            return np.flatnonzero(mask)
        if not cand.size:
            return _EMPTY_SLOTS.copy()
        covered = np.asarray(self._prop.coverage(self._pos[i], r, self._pos[cand]), dtype=bool)
        out = cand[covered]
        return np.sort(out[out != i])

    def _sparse_conflict_slots(self, i: int) -> np.ndarray:
        """CA1 ∪ CA2 conflict slots of ``i``: out ∪ in ∪ witness keys."""
        out = self._outr[i].view()
        inn = self._inr[i].view()
        entries = self._c2s[i]
        if entries:
            keys = np.fromiter(entries.keys(), dtype=np.intp, count=len(entries))
            return np.unique(np.concatenate((out, inn, keys)))
        return np.union1d(out, inn)

    def _sparse_apply_row(self, i: int, new_out: np.ndarray) -> None:
        """Replace slot ``i``'s out-row, batching the C2 witness deltas.

        When ``i`` starts (stops) covering a receiver ``w``, every other
        in-neighbor of ``w`` gains (loses) one common-out-neighbor
        witness with ``i``.  The batched kernel aggregates those deltas
        *per co-parent* before touching any dict: the changed receivers'
        in-rows are concatenated into one flat slot array, one
        ``np.unique`` collapses them to distinct co-parents, and signed
        occurrence counts (``np.bincount`` over the unique inverse —
        grouped ``np.add.at``-style accumulation) become one merged
        update per ``(i, u)`` pair instead of one dict call per witness.
        Exact integer arithmetic and the same never-store-zero /
        fail-on-negative invariant as :func:`_c2_dec`, so the counters
        stay exact.
        """
        self._own_slot(i)
        outr, inr, c2s = self._outr, self._inr, self._c2s
        row_i = outr[i]
        old_out = row_i.view()
        if old_out.size:
            added = np.setdiff1d(new_out, old_out, assume_unique=True)
            removed = np.setdiff1d(old_out, new_out, assume_unique=True)
        else:
            added, removed = new_out, old_out
        if added.size or removed.size:
            # Gather every changed receiver's co-parents.  Removals drop
            # ``i`` from the in-row first (the remaining members are the
            # losers); additions read the row before ``i`` joins it (the
            # existing members are the gainers) — their structural
            # inserts are deferred below, because the gathered views
            # alias the rows' live buffers until the concatenate copies.
            added_list = added.tolist()
            parts: list[np.ndarray] = []
            gained = 0
            for w in added_list:
                v = inr[w].view()
                if v.size:
                    parts.append(v)
                    gained += v.size
            for w in removed.tolist():
                self._own_slot(w)
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
                    self._own_slot(u)
                    du = c2s[u]
                    left = du.get(i, 0) + d
                    if left > 0:
                        du[i] = left
                    elif left == 0:
                        del du[i]
                    else:
                        raise KeyError(i)
            for w in added_list:
                self._own_slot(w)
                inr[w].insert(i)
        row_i.set_sorted(new_out)

    def _sparse_apply_col(self, i: int, new_in: np.ndarray) -> None:
        """Replace slot ``i``'s in-row: reconcile the receiver clique."""
        self._own_slot(i)
        outr, inr = self._outr, self._inr
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, new_in)
        if old_in.size:
            arrived = np.setdiff1d(new_in, old_in, assume_unique=True)
            departed = np.setdiff1d(old_in, new_in, assume_unique=True)
        else:  # join fast path: every in-neighbor is new
            arrived, departed = new_in, old_in
        for u in arrived.tolist():
            self._own_slot(u)
            outr[u].insert(i)
        for u in departed.tolist():
            self._own_slot(u)
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
        c2s = self._c2s
        if old.size:
            added = np.setdiff1d(new, old, assume_unique=True)
            removed = np.setdiff1d(old, new, assume_unique=True)
            kept = np.setdiff1d(old, removed, assume_unique=True).tolist()
        else:  # join fast path: the whole new clique is asserted
            added, removed, kept = new, old, []
        olds = old.tolist()
        for r in removed.tolist():
            self._own_slot(r)
            dr = c2s[r]
            for u in olds:
                if u != r:
                    _c2_dec(dr, u)
            for k in kept:
                self._own_slot(k)
                _c2_dec(c2s[k], r)
        news = new.tolist()
        for a in added.tolist():
            # Assertions only ever increase counters, so the whole
            # member list can be bulk-counted at C speed; the one
            # self-count (``a ∈ news``) is backed out by hand — the
            # diagonal is never stored, so backing it out either
            # restores the prior entry or deletes the fresh ``+1``.
            self._own_slot(a)
            da = c2s[a]
            _count_elements(da, news)
            left = da[a] - 1
            if left:
                da[a] = left
            else:
                del da[a]
            for k in kept:
                self._own_slot(k)
                _c2_inc(c2s[k], a)

    def _sparse_unlink(self, i: int) -> None:
        """Retract slot ``i``'s conflict contributions before removal.

        The receiver clique at ``i`` dissolves (fused retraction), the
        incident rows drop ``i``, and every witness pair involving ``i``
        vanishes wholesale by dropping its dict and the mirror keys —
        no per-receiver retraction needed for pairs that die with the
        node.
        """
        self._own_slot(i)
        outr, inr, c2s = self._outr, self._inr, self._c2s
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, _EMPTY_SLOTS)
        for u in old_in.tolist():
            self._own_slot(u)
            outr[u].remove(i)
        inr[i].clear()
        for w in outr[i].view().tolist():
            self._own_slot(w)
            inr[w].remove(i)
        outr[i].clear()
        entries = c2s[i]
        for u in entries:
            self._own_slot(u)
            del c2s[u][i]
        c2s[i] = {}

    def _sparse_rename_slot(self, last: int, i: int) -> None:
        """Renumber slot ``last`` to the vacated ``i`` across all rows.

        The sparse half of the swap-delete: the moved node's own row
        objects transfer by reference, and every referencing row and
        witness dict swaps the ``last`` entry for ``i``.  ``i`` must
        already be fully unlinked.
        """
        outr, inr, c2s = self._outr, self._inr, self._c2s
        row = outr[last]
        for w in row.view().tolist():
            self._own_slot(w)
            inr[w].replace(last, i)
        col = inr[last]
        for u in col.view().tolist():
            self._own_slot(u)
            outr[u].replace(last, i)
        entries = c2s[last]
        for v in entries:
            self._own_slot(v)
            mirror = c2s[v]
            mirror[i] = mirror.pop(last)
        outr[i] = row
        inr[i] = col
        c2s[i] = entries
        if self._rows_cow:
            # The moved node's row objects transferred by reference:
            # slot ``i`` inherits slot ``last``'s ownership status.
            if last in self._owned_slots:
                self._owned_slots.discard(last)
                self._owned_slots.add(i)
            else:
                self._owned_slots.discard(i)

    def _flush_round_batch(self, batch: list, deltas: list[TopologyDelta]) -> None:
        """Commit a contiguous join/move run as one batched mutation.

        The sparse half of :meth:`apply_round`: one geometry/grid commit
        pass over the run, one final edge-set requery per touched slot,
        grouped edge flips, and a single fused C2 reconciliation per
        changed receiver row.  Exact because the final adjacency depends
        only on each live node's final (position, range) — joins and
        moves neither renumber slots nor consult pre-event conflict
        state, which is why leaves and power changes flush the run.
        """
        if not batch:
            return
        if len(batch) == 1:
            deltas.append(self.apply_event(batch[0]))
            batch.clear()
            return
        from repro.events.base import JoinEvent

        if all(isinstance(ev, JoinEvent) for ev in batch):
            # Pure join runs take the streaming bulk-join path: one
            # grid-bucketed sweep instead of per-slot candidate queries.
            deltas.extend(self.bulk_join([ev.config for ev in batch]))
            batch.clear()
            return

        # Pre-validate the whole run: sequential application reports
        # these per event; batched geometry must not fail half-written.
        live = set(self._index)
        for ev in batch:
            if isinstance(ev, JoinEvent):
                if ev.config.node_id in live:
                    raise DuplicateNodeError(ev.config.node_id)
                live.add(ev.config.node_id)
            elif ev.node_id not in live:
                raise UnknownNodeError(ev.node_id)

        # Phase 1 — commit geometry (positions, ranges, ids, grid) for
        # the whole run, in order, emitting the per-event deltas.
        dirty: dict[int, None] = {}
        for ev in batch:
            if isinstance(ev, JoinEvent):
                cfg = ev.config
                n = len(self._ids) + 1
                self._ensure_capacity(n)
                i = n - 1
                self._pos[i] = (cfg.x, cfg.y)
                self._range[i] = cfg.tx_range
                if cfg.tx_range > self._max_range:
                    self._max_range = float(cfg.tx_range)
                self._ids.append(cfg.node_id)
                self._ida[i] = cfg.node_id
                self._index[cfg.node_id] = i
                self._ensure_sparse_slot(i)
                if self._use_grid:
                    self._grid_insert(i, cfg.x, cfg.y, cfg.tx_range)
                dirty[i] = None
                self._version += 1
                self._touched[i] = self._version
                deltas.append(TopologyDelta("join", cfg.node_id, self._version))
            else:  # MoveEvent
                i = self._index[ev.node_id]
                self._pos[i] = (float(ev.x), float(ev.y))
                if self._grid is not None:
                    self._own_grid()
                    self._grid.move(i, float(ev.x), float(ev.y))
                dirty[i] = None
                self._version += 1
                self._touched[i] = self._version
                deltas.append(TopologyDelta("move", ev.node_id, self._version))

        outr, inr = self._outr, self._inr
        dirty_slots = list(dirty)

        # Phase 2 — capture old rows, then requery the final edge sets
        # of every touched slot against the committed round geometry
        # (one grid-bucketed sweep; co-located slots share a gather).
        old_out = {i: outr[i].values() for i in dirty_slots}
        old_in = {i: inr[i].values() for i in dirty_slots}
        new_out, new_in = self._bulk_edge_sets(dirty_slots)

        self._commit_dirty_rows(dirty_slots, set(dirty), old_out, old_in, new_out, new_in)
        batch.clear()

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

        The shared tail of :meth:`bulk_join` and the round batcher:
        given every dirty slot's old and final (out, in) sets, flip the
        structural edges and reconcile the C2 witness counters so the
        graph is exactly what sequential application would leave.

        Phase 3 — group the out-row diffs by outside receiver, so a
        receiver hit by k events reconciles once, not k times.  The
        grouping is vectorized: every dirty row's asserted and
        retracted receivers concatenate into one (receiver, source)
        array pair — retractions carry ``~source`` so one intp array
        holds both signs — dirty receivers are masked out in one
        indexed lookup, and a single stable argsort over the receivers
        yields the per-receiver runs.
        """
        outr, inr, c2s = self._outr, self._inr, self._c2s
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
            is_dirty = np.zeros(len(self._ids), dtype=bool)
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

        # Phase 4 — C2 reconciliation, one pass per changed receiver
        # row.  Dirty receivers get the full old → new reconcile; an
        # outside receiver hit by a single event takes the same cheap
        # incremental update the sequential path would (the common case
        # in spread-out rounds), and only receivers hit by several
        # events pay the fused array reconcile — which is exactly where
        # fusing wins, because the k hits reconcile once.
        for w in dirty_slots:
            self._reconcile_receiver(w, old_in[w], new_in[w])
        for w, seg in groups:
            self._own_slot(w)
            row = inr[w]
            if seg.size == 1:
                i = int(seg[0])
                if i >= 0:
                    self._own_slot(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own_slot(u)
                        _c2_inc(di, u)
                        _c2_inc(c2s[u], i)
                    row.insert(i)
                else:
                    i = ~i
                    row.remove(i)
                    self._own_slot(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own_slot(u)
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

        # Phase 5 — structural flips: dirty rows replaced wholesale,
        # non-dirty sources get their grouped out-row edits.
        for i in dirty_slots:
            self._own_slot(i)
            old = old_in[i]
            if old.size:
                arrived = np.setdiff1d(new_in[i], old, assume_unique=True)
                departed = np.setdiff1d(old, new_in[i], assume_unique=True)
            else:  # join fast path: every in-neighbor is new
                arrived, departed = new_in[i], old
            for u in arrived.tolist():
                if u not in dirty_set:
                    self._own_slot(u)
                    outr[u].insert(i)
            for u in departed.tolist():
                if u not in dirty_set:
                    self._own_slot(u)
                    outr[u].remove(i)
            outr[i].set_sorted(new_out[i])
            inr[i].set_sorted(new_in[i])
