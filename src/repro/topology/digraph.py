"""Dynamic ad-hoc digraph with incremental reconfiguration updates.

``AdHocDigraph`` maintains the directed graph induced by node
configurations under a propagation model.  It is the single source of
truth for topology; strategies and simulators query it, never raw arrays.

The graph owns everything core-agnostic: node ids and their storage
*slots* (row indices of the flat position/range/id arrays, kept dense
0..n-1 by swap-delete on removal), the topology version, the per-slot
touched journal behind delta snapshots, the per-version query memo, the
snapshot schema and copy-on-write forks.
All neighbor queries return id lists sorted ascending for determinism.

Adjacency and the CA2 witness counters live in the *conflict core*
behind one slot-level interface: insert / refresh / set-rows / unlink /
rename of a slot, out/in/undirected/V1/conflict rows, whole-network
blocks, and the counter state dump/load.
:class:`~repro.topology.cores.array.ArrayCore` implements it with dense
``(cap, cap)`` blocks, so a graph holds fewer than ``_MAX_NODES``
nodes: one check in :meth:`AdHocDigraph._ensure_capacity`, which every
join, restore and delta reaches before it writes any state, raises a
:class:`ConfigurationError` past that.

The core is checked on every event against a brute-force
re-derivation from the node configurations
(``tests/topology/oracles.py``).  The slot-native query surface
(:meth:`AdHocDigraph.slot_of`, :meth:`AdHocDigraph.v1_slots`,
:meth:`AdHocDigraph.conflict_pairs`) lets vectorized consumers skip
per-node Python entirely.

Every neighbour search is one full-row scan: a join or move tests the
slot against all live slots in one vectorised distance pass, which at
fewer than ``_MAX_NODES`` slots costs less than keeping a spatial index.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ConfigurationError,
    DuplicateNodeError,
    InvalidEventError,
    UnknownNodeError,
)
from repro.obs import metrics as _met
from repro.topology.cores import ArrayCore
from repro.topology.node import NodeConfig
from repro.topology.propagation import FreeSpacePropagation, PropagationModel
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only; events imports topology.node
    from repro.events.base import Event

__all__ = ["AdHocDigraph", "TopologyDelta"]

_INITIAL_CAPACITY = 16
#: Memo key of the assembled conflict-adjacency pair (node ids are ints,
#: so a string key can never collide with a per-node conflict-set entry).
_CONFLICT_ADJ_KEY = "conflict_adjacency"
#: A range above this multiple of the recorded cell raises the cell to
#: that range (see :meth:`AdHocDigraph._record_cell`).
_CELL_RAISE_FACTOR = 4.0
#: The population limit: the array core's adjacency and C2 blocks cost
#: 5 B × cap², 80 MiB at 4096 slots, and no registered scenario comes
#: near it (the largest runs 160 nodes).  A fixed constant, not a knob.
_MAX_NODES = 4096


def _reject_retired_knobs() -> None:
    """Raise if the environment selects a conflict core by hand.

    Ignoring such a setting silently would let the user believe results
    came from a core that no longer exists.  Settings that were already
    no-ops (unset, or ``0`` for the removed opt-ins) stay accepted;
    ``REPRO_SPARSE`` chose the removed sparse core, so any value of it
    is rejected.
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
                "removed; the array core is the only conflict core — unset it"
            )


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
    """

    def __init__(self, propagation: PropagationModel | None = None) -> None:
        _reject_retired_knobs()
        self._prop: PropagationModel = (
            propagation if propagation is not None else FreeSpacePropagation()
        )
        # Exactly free space (not a subclass): gates the inlined
        # distance kernels of the cores.
        self._fs = type(self._prop) is FreeSpacePropagation
        cap = _INITIAL_CAPACITY
        self._pos = np.zeros((cap, 2), dtype=np.float64)
        self._range = np.zeros(cap, dtype=np.float64)
        self._ids: list[NodeId] = []  # index -> id, for the active block
        self._ida = np.zeros(cap, dtype=np.int64)  # slot-aligned ids (hot queries)
        self._index: dict[NodeId, int] = {}
        self._core = ArrayCore()
        # The recorded cell (see _record_cell); null for a model whose
        # coverage is not bounded by the transmission disc.
        self._disc = bool(getattr(self._prop, "disc_bounded", False))
        self._explicit_cell: float | None = None
        self._cell: float | None = None
        self._version = 0
        # Per-version memo of derived conflict queries.  Multi-strategy
        # replay issues the same queries once per strategy between two
        # topology events; the memo makes repeats O(1).
        self._memo: dict = {}
        self._memo_version = -1
        # Delta-snapshot bookkeeping: slot -> topology version of the
        # last mutation that rewrote the slot's occupant/configuration
        # (edges are derived from endpoint configs, so config-dirty
        # slots bound every edge change).  ``_delta_floor`` is the
        # earliest base version :meth:`delta_snapshot` can serve —
        # tracking starts at construction (or at restore).
        self._touched: dict[int, int] = {}
        self._delta_floor = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def propagation(self) -> PropagationModel:
        """The propagation model edges are computed under."""
        return self._prop

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
        return self._core.has_edge(self._idx(src), self._idx(dst))

    def out_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes within ``node_id``'s transmission range (sorted)."""
        return sorted(self._ida[self._core.out_slots(self._idx(node_id))].tolist())

    def in_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes whose transmissions reach ``node_id`` (sorted)."""
        return sorted(self._ida[self._core.in_slots(self._idx(node_id))].tolist())

    def undirected_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Union of in- and out-neighbors (sorted)."""
        return sorted(self._ida[self._core.undirected_slots(self._idx(node_id))].tolist())

    def out_degree(self, node_id: NodeId) -> int:
        """Number of out-neighbors."""
        return len(self._core.out_slots(self._idx(node_id)))

    def in_degree(self, node_id: NodeId) -> int:
        """Number of in-neighbors."""
        return len(self._core.in_slots(self._idx(node_id)))

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node, by slot (see :meth:`slot_ids`)."""
        return self._core.in_degrees()

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate all directed edges as ``(src, dst)`` id pairs.

        Row-major slot order, ascending columns within a row.
        """
        ids = self._ids
        for r, src in enumerate(ids):
            for c in self._core.out_slots(r).tolist():
                yield (src, ids[c])

    def edge_count(self) -> int:
        """Total number of directed edges."""
        return int(self._core.in_degrees().sum())

    def adjacency(self) -> tuple[list[NodeId], np.ndarray]:
        """``(ids, A)`` where ``A[i, j]`` == edge ``ids[i] -> ids[j]``.

        ``ids`` is ascending; ``A`` is a copy safe to mutate.  This is the
        entry point for vectorized consumers (conflict-matrix builds,
        whole-network recoloring).  This is an O(N²) materialization
        by contract, meant for whole-network consumers, not per-event
        hot paths.
        """
        order = sorted(range(len(self._ids)), key=lambda j: self._ids[j])
        ids = [self._ids[j] for j in order]
        perm = np.asarray(order, dtype=np.intp)
        return ids, self._core.adj_block()[np.ix_(perm, perm)].copy()

    def positions_and_ranges(self) -> tuple[list[NodeId], np.ndarray, np.ndarray]:
        """``(ids, positions, ranges)`` aligned arrays, ids ascending."""
        order = sorted(range(len(self._ids)), key=lambda j: self._ids[j])
        ids = [self._ids[j] for j in order]
        perm = np.asarray(order, dtype=np.intp)
        return ids, self._pos[perm].copy(), self._range[perm].copy()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, cfg: NodeConfig) -> None:
        """Join ``cfg`` to the network, creating its in/out edges."""
        if cfg.node_id in self._index:
            raise DuplicateNodeError(cfg.node_id)
        i = self._admit(cfg)
        self._core.insert(self, i)
        self._version += 1
        self._touched[i] = self._version

    def remove_node(self, node_id: NodeId) -> NodeConfig:
        """Remove ``node_id`` and all incident edges; returns its config."""
        cfg = self.config(node_id)
        n = len(self._ids)
        i = self._index[node_id]
        self._core.unlink(i)
        self._vacate_slot(i)
        self._version += 1
        if i != n - 1:
            # Swap-delete moved the last slot's occupant into i.
            self._touched[i] = self._version
        return cfg

    def _admit(self, cfg: NodeConfig) -> int:
        """Append ``cfg``'s geometry in a fresh trailing slot; return the slot.

        The core gets the (empty) slot too; creating its edges is the
        caller's step.
        """
        i = len(self._ids)
        self._resize(i + 1)
        self._pos[i] = (cfg.x, cfg.y)
        self._range[i] = cfg.tx_range
        self._ids.append(cfg.node_id)
        self._ida[i] = cfg.node_id
        self._index[cfg.node_id] = i
        self._record_cell(cfg.tx_range, join=True)
        return i

    def _vacate_slot(self, i: int) -> None:
        """Release the unlinked slot ``i`` by swap-deleting the last slot into it.

        The shared tail of every removal: unlinks the slot from the
        id↔slot maps, moves the last slot's entries into ``i`` across
        **all** per-slot tables (positions, ranges, the core's rows, id
        arrays), and drops the freed trailing slot.  The core must
        already have unlinked ``i`` — this helper only renumbers.
        """
        n = len(self._ids)
        self._index.pop(self._ids[i])
        last = n - 1
        if i != last:
            self._pos[i] = self._pos[last]
            self._range[i] = self._range[last]
            self._core.rename(last, i)
            moved = self._ids[last]
            self._ids[i] = moved
            self._ida[i] = moved
            self._index[moved] = i
        self._ids.pop()
        self._core.resize(last)

    def move_node(self, node_id: NodeId, x: float, y: float) -> None:
        """Relocate ``node_id``; recomputes its out- and in-edges."""
        i = self._idx(node_id)
        self._pos[i] = (float(x), float(y))
        self._core.refresh(self, i)
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
        self._range[i] = float(tx_range)
        self._record_cell(tx_range, join=False)
        self._core.refresh_out(self, i)
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

    # ------------------------------------------------------------------
    # Snapshots (warm starts)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialize the full topology state to a JSON-able dict.

        Captures everything :meth:`restore` needs to resume replay
        byte-identically: node configurations (in slot order, so the
        CA2 counters stay aligned), the directed edge list, the
        incremental CA2 witness counters, the recorded cell (see
        :meth:`_record_cell`), and the topology version.  The derived
        query memo is rebuilt on demand and is not part of the state.

        Schema 2 additionally records the propagation model's name, so
        chained restores (snapshot → restore → replay → snapshot → …,
        the checkpoint-timeline pattern) cannot silently swap the edge
        semantics mid-chain: restoring a snapshot taken under a
        non-default model without supplying that model is an error, not
        a free-space reinterpretation.  Schema 3 stores the CA2
        counters as sparse ``[u, v, count]`` triples (row-major,
        ascending columns — the ``np.nonzero`` order) instead of the
        dense N×N list, so snapshot size scales with witnesses, not
        N².  Edges are row-major with ascending columns too.  The
        ``"dense"`` field is always ``False``: it records the retired
        dense re-derive mode, whose snapshots (``"dense": true``,
        ``c2 = None``) :meth:`restore` still accepts.  Snapshots are
        idempotent across the chain — re-snapshotting a restored graph
        reproduces the original dict byte-for-byte.
        """
        n = len(self._ids)
        edges, c2 = self._core.dump()
        return {
            "schema": 3,
            "propagation": type(self._prop).__name__,
            "dense": False,
            "version": self._version,
            "explicit_cell": self._explicit_cell,
            "grid_cell_size": self._cell,
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
        taken: same slot layout, adjacency, CA2 counters, recorded cell
        and topology version, so subsequent events produce results
        byte-identical to the original instance's — and so do chained
        restores, where the restored graph is replayed further,
        re-snapshotted and restored again (pinned by
        ``tests/sim/test_timeline.py``).  Accepts schema 1 (pre-PR 5
        snapshots, which did not record the propagation model) and
        schema 2, which refuses to restore a snapshot taken under a
        non-default propagation model unless that model is supplied.

        The schema is core-independent: snapshots written by the retired
        sparse core restore and re-snapshot byte-identically (pinned by
        a fixture in ``tests/topology/test_delta_fork.py``), and those
        written by the retired dict and dense cores restore too (see
        :meth:`_snapshot_c2`).  A snapshot of ``_MAX_NODES`` nodes or
        more raises before any block is allocated.
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
        g = cls(propagation)
        g._explicit_cell = snapshot["explicit_cell"]
        nodes = snapshot["nodes"]
        n = len(nodes)
        g._ensure_capacity(n)
        for slot, (node_id, x, y, tx_range) in enumerate(nodes):
            g._pos[slot] = (x, y)
            g._range[slot] = tx_range
            g._ids.append(node_id)
            g._ida[slot] = node_id
            g._index[node_id] = slot
        edges = snapshot["edges"]
        g._core = ArrayCore.load(n, edges, g._snapshot_c2(snapshot, edges))
        if g._disc:
            cell = snapshot["grid_cell_size"]
            if cell is None and n:  # schema-1 and dense-mode snapshots lack it
                cell = float(g._range[:n].max())
            if cell is not None:
                g._cell = float(cell)
        g._version = snapshot["version"]
        # A freshly restored graph carries no per-slot mutation history,
        # so the earliest base version it can serve deltas from is its own.
        g._delta_floor = g._version
        return g

    def _snapshot_c2(self, snapshot: dict, edges: list) -> list:
        """A snapshot's CA2 counters as row-major ``[u, v, count]`` triples.

        The one place legacy forms are normalised: schema 3 already
        stores triples; schemas 1 and 2 store a dense N×N matrix (the
        schema, not the payload, tells them apart — an N×N list at
        N = 3 is shape-identical to a triple list); snapshots of the
        retired dense re-derive mode store none (``c2 = None``), so the
        counters are re-derived from the edges — each receiver's
        in-clique contributes one witness per ordered pair.
        """
        c2 = snapshot["c2"]
        if snapshot["schema"] == 3 and c2 is not None:
            return c2
        n = len(snapshot["nodes"])
        if not n:
            return []
        if c2 is None:
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            e = e[np.lexsort((e[:, 0], e[:, 1]))]
            bounds = e[:, 1].searchsorted(np.arange(n + 1)).tolist()
            keys = [np.empty(0, dtype=np.int64)]
            for w in range(n):
                members = e[bounds[w] : bounds[w + 1], 0]
                k = len(members)
                a, b = np.repeat(members, k), np.tile(members, k)
                keys.append((a * n + b)[a != b])
            pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
            return np.column_stack((pairs // n, pairs % n, counts)).tolist()
        dense = np.asarray(c2, dtype=np.int64)
        rows, cols = np.nonzero(dense)
        return np.column_stack((rows, cols, dense[rows, cols])).tolist()

    def copy(self) -> "AdHocDigraph":
        """Deep copy (same propagation model object, copied arrays)."""
        return self._clone(share=False)

    def fork(self) -> "AdHocDigraph":
        """Copy-on-write fork: a clone sharing the heavy conflict state.

        Both siblings keep referencing the same core blocks; the first
        edge change on either side copies them.  Flat O(N) per-slot
        tables (positions, ranges, ids) are copied eagerly; the
        checkpoint-tree fork rate makes those copies noise next to the
        state being shared.

        Either sibling may keep mutating; results are byte-identical
        to a :meth:`copy`-based clone (pinned by the CoW aliasing
        tests).
        """
        return self._clone(share=True)

    def _clone(self, share: bool) -> "AdHocDigraph":
        """The one clone routine: ``share`` defers copying the heavy state."""
        g = AdHocDigraph.__new__(AdHocDigraph)
        g.__dict__.update(self.__dict__)
        g._pos = self._pos.copy()
        g._range = self._range.copy()
        g._ids = list(self._ids)
        g._ida = self._ida.copy()
        g._index = dict(self._index)
        g._touched = dict(self._touched)
        g._memo = {}
        g._memo_version = -1
        g._core = self._core.clone(share)
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
        core = self._core
        slots = [
            [
                s,
                int(self._ids[s]),
                float(self._pos[s, 0]),
                float(self._pos[s, 1]),
                float(self._range[s]),
                core.out_slots(s).tolist(),
                core.in_slots(s).tolist(),
            ]
            for s in dirty
        ]
        return {
            "schema": 1,
            "kind": "digraph-delta",
            "base_version": int(base_version),
            "version": int(self._version),
            "n": n,
            "cell": self._cell,
            "slots": slots,
        }

    def apply_delta(self, delta: dict) -> None:
        """Replay a :meth:`delta_snapshot` onto this graph.

        The graph must sit exactly at the delta's recorded base version
        — anything else means the delta was cut against a different
        state and would silently diverge, so a mismatch raises
        :class:`ConfigurationError` naming both versions.

        Application is four-phased: (A) unlink every dirty slot and
        every slot beyond the delta's population through the core,
        leaving the untouched induced subgraph; (B) adjust the
        population tables; (C) commit the dirty slots' final
        configurations and the recorded cell; (D) set each dirty slot's
        final out- and in-rows through the core's incremental kernels,
        which reconstruct the CA2 counters exactly (they are a pure
        function of the final adjacency, and the kernels maintain the
        invariant at every step, so any application order lands on
        identical bytes).
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
        version = delta["version"]
        dirty = [rec[0] for rec in records]
        dirty_set = set(dirty)
        for s in range(n0, n1):
            if s not in dirty_set:
                raise ConfigurationError(
                    f"corrupt delta: grown slot {s} has no dirty record"
                )
        self._ensure_capacity(n1)  # the population limit, before any write

        # Phase A — unlink: retract every edge incident to a slot whose
        # content changes (or vanishes), so the CA2 counters stay exact
        # for the surviving subgraph.
        unlink = sorted(set(s for s in dirty if s < n0) | set(range(n1, n0)))
        for s in unlink:
            self._core.unlink(s)
            self._index.pop(self._ids[s], None)

        # Phase B — population: shrink or grow the per-slot tables.
        self._resize(n1)
        if n1 < n0:
            del self._ids[n1:]
        else:
            self._ids.extend(0 for _ in range(n1 - n0))

        # Phase C — configurations: commit each dirty slot's final
        # (id, position, range) and the recorded cell.
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
        if self._disc:
            cell = delta["cell"]
            self._cell = None if cell is None else float(cell)

        # Phase D — edges: set each dirty slot's final out-row and
        # in-row.  The kernels diff against current state, so
        # interleaved dirty-dirty edges commit exactly once no matter
        # the order.
        for s, _nid, _x, _y, _r, out, inn in records:
            self._core.set_rows(
                s, np.asarray(out, dtype=np.intp), np.asarray(inn, dtype=np.intp)
            )
        self._version = version

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
            cached = frozenset(self._ida[self._core.conflict_slots(self._idx(node_id))].tolist())
            memo[node_id] = cached
        return set(cached)

    def conflict_slots(self, slot: int) -> np.ndarray:
        """Slots conflicting with ``slot`` under CA1 ∪ CA2 (sorted).

        The slot-native counterpart of :meth:`conflict_neighbor_ids`.
        """
        return self._core.conflict_slots(slot)

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
            cached = (ids, self._core.conflict_block()[np.ix_(order, order)])
            memo[_CONFLICT_ADJ_KEY] = cached
        ids, block = cached
        return list(ids), block.copy()

    # ------------------------------------------------------------------
    # Array-native query surface
    # ------------------------------------------------------------------
    # Slot-indexed variants of the id-based queries above.  A *slot* is
    # the node's row index in the contiguous storage; slots stay dense
    # 0..n-1 under swap-delete, so a node's slot is stable only between
    # removals.  Batch consumers (the bench's vectorized event loop,
    # array color lanes) translate ids to slots once per event and then
    # work purely on index arrays.

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
        return self._core.out_slots(slot)

    def in_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s in-neighbors (ascending index array)."""
        return self._core.in_slots(slot)

    def undirected_slots(self, slot: int) -> np.ndarray:
        """Slots with an edge to or from ``slot`` (ascending index array).

        The slot form of :meth:`undirected_neighbors`.
        """
        return self._core.undirected_slots(slot)

    def v1_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s closed in-neighborhood (``slot`` + in-neighbors).

        The "one-hop upstream vicinity" every event handler revisits:
        the nodes whose conflict rows an event at ``slot`` can change.
        Fused so the hot loop pays one pass instead of an ``in_slots`` +
        ``np.append`` round trip.
        """
        return self._core.v1_slots(slot)

    def conflict_pairs(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched CA1 ∪ CA2 conflict rows of many slots: ``(rows, cols)``.

        Entry ``j`` says slot ``cols[j]`` conflicts with ``slots[rows[j]]``.
        Row-major: ``rows`` is non-decreasing and within a row ``cols``
        ascends; the diagonal (a slot with itself) is excluded — the
        ``np.nonzero`` order of the ``(len(slots), N)`` conflict block.
        One call replaces ``len(slots)`` :meth:`conflict_slots` queries:
        the core answers it with one boolean block and ``np.nonzero``.
        """
        return self._core.conflict_pairs(np.asarray(slots, dtype=np.intp))

    def undirected_hop_distances(self, src: NodeId) -> dict[NodeId, int]:
        """BFS hop counts from ``src`` over the undirected support.

        Unreachable nodes are absent from the result.  Used for
        connectivity checks (:mod:`repro.topology.connectivity`); bounded
        neighborhoods use :func:`repro.topology.neighborhoods.k_hop_neighbors`.
        """
        n = len(self._ids)
        i = self._idx(src)
        dist = np.full(n, -1, dtype=np.int64)
        dist[i] = 0
        frontier = [i]
        hops = 0
        while frontier:
            hops += 1
            reached = np.unique(np.concatenate([self._core.undirected_slots(u) for u in frontier]))
            fresh = reached[dist[reached] < 0]
            dist[fresh] = hops
            frontier = fresh.tolist()
        return {self._ids[j]: int(dist[j]) for j in np.flatnonzero(dist >= 0).tolist()}

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
        """Grow the flat per-slot arrays (amortized doubling) to hold ``needed``.

        The population limit's one check: every path that adds slots
        (a join, a restore, a delta) comes here before it writes any
        state, so a refused graph is left as it was.
        """
        if needed >= _MAX_NODES:
            raise ConfigurationError(
                f"growing the graph from {len(self._ids)} to {needed} nodes: the "
                f"array conflict core holds fewer than {_MAX_NODES} nodes"
            )
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

    def _resize(self, n: int) -> None:
        """Give the flat arrays and the core room for exactly ``n`` live slots."""
        self._ensure_capacity(n)
        self._core.resize(n)

    def _record_cell(self, tx_range: float, *, join: bool) -> None:
        """Advance the recorded cell for a node now transmitting at ``tx_range``.

        No index reads the cell any more (it sized a spatial slot grid,
        since replaced by full-row scans).  It stays a recorded snapshot
        (``grid_cell_size``, ``explicit_cell``) and delta (``cell``)
        field because checkpoints in a store are keyed by content, not
        by code version: an older reader that applies ``delta["cell"]``
        may load what this graph writes.  Dropping the fields is a
        format change.  The rule: the first join's range sets the cell,
        a range above ``_CELL_RAISE_FACTOR`` times the cell raises it to
        that range, and an explicit cell restored from a snapshot wins.
        The cell is ``None`` for a model without ``disc_bounded``.
        """
        if not self._disc:
            return
        explicit = self._explicit_cell
        if self._cell is None:
            if join:
                self._cell = float(tx_range) if explicit is None else explicit
        elif explicit is None and tx_range > _CELL_RAISE_FACTOR * self._cell:
            self._cell = float(tx_range)
