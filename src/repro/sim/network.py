"""The simulation core: shared topology + per-strategy assignment state.

The event loop contract (paper section 2) is: events are applied one at
a time; the topology mutation happens first, then the strategy computes
recodes, then the assignment is updated and metrics recorded.  This
module splits those responsibilities:

* :class:`~repro.topology.digraph.AdHocDigraph` owns the topology and
  produces a :class:`~repro.topology.digraph.TopologyDelta` per event
  (via ``apply_event``);
* :class:`StrategyLane` owns everything per-strategy — the
  :class:`ArrayCodeAssignment`, the :class:`MetricsCollector`, and the
  dispatch of a delta to the right strategy handler;
* :class:`AdHocNetwork` composes one graph with one lane (the classic
  single-strategy facade, API unchanged);
* :class:`MultiStrategyReplay` composes one graph with *many* lanes:
  each event's topology mutation and conflict-delta computation run
  once and fan out to every lane — the single-pass replay that the
  experiment pipeline uses to compare strategies on identical
  workloads without re-deriving topology per strategy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.coloring.assignment import ArrayCodeAssignment, CodeAssignment
from repro.coloring.verify import assert_valid
from repro.errors import ConfigurationError, ConnectivityError
from repro.events.base import Event, JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.sim.metrics import EventRecord, MetricsCollector
from repro.strategies.base import RecodeResult, RecodingStrategy
from repro.topology.connectivity import has_minimal_connectivity
from repro.topology.digraph import AdHocDigraph, TopologyDelta
from repro.topology.node import NodeConfig
from repro.topology.propagation import PropagationModel
from repro.types import NodeId

__all__ = ["AdHocNetwork", "MultiStrategyReplay", "StrategyLane"]


class StrategyLane:
    """One strategy's private state riding a shared topology.

    A lane owns the assignment and :class:`MetricsCollector` of exactly
    one strategy.  It never mutates the graph: :meth:`react` consumes a
    :class:`TopologyDelta` produced by the graph's ``apply_event`` and
    turns it into color changes, which makes any number of lanes safely
    shareable over one digraph.

    The lane's colors live in a contiguous id-indexed
    :class:`ArrayCodeAssignment` with an O(1) ``max_color``.  It is
    observably identical to the dict-backed :class:`CodeAssignment`
    reference container and serializes to the same :meth:`state_dict`.
    """

    __slots__ = ("strategy", "assignment", "metrics", "validate")

    def __init__(self, strategy: RecodingStrategy, *, validate: bool = False) -> None:
        self.strategy = strategy
        self.assignment: CodeAssignment = ArrayCodeAssignment()
        self.metrics = MetricsCollector()
        self.validate = validate

    @property
    def name(self) -> str:
        """The lane's strategy name (used in experiment tables)."""
        return self.strategy.name

    def fork(self) -> "StrategyLane":
        """An independent lane continuing from this lane's current state.

        The strategy object is shared (strategies are stateless between
        events — configuration only); the assignment and metrics are
        deep-copied so the fork and the original diverge freely.
        """
        clone = StrategyLane(self.strategy, validate=self.validate)
        clone.assignment = self.assignment.copy()
        clone.metrics = self.metrics.clone()
        return clone

    def state_dict(self) -> dict:
        """Serialize the lane's per-strategy state to a JSON-able dict.

        Captures the strategy *name* (strategies are stateless between
        events, so the name rebuilds an equivalent object), the full
        assignment, and the metrics history — everything
        :meth:`load_state` needs to continue byte-identically.
        """
        return {
            "strategy": self.name,
            "assignment": [[int(node), int(color)] for node, color in self.assignment.items()],
            "metrics": [
                [r.kind, int(r.node), int(r.recodings), int(r.messages), int(r.max_color_after)]
                for r in self.metrics.records
            ],
        }

    def load_state(self, state: dict) -> "StrategyLane":
        """Adopt a :meth:`state_dict`; returns self for chaining."""
        if state.get("strategy") != self.name:
            raise ConfigurationError(
                f"lane state is for strategy {state.get('strategy')!r}, "
                f"this lane runs {self.name!r}"
            )
        # Rebuild with the lane's own container class: lane state is
        # container-independent, so any checkpoint loads without
        # translation.
        self.assignment = type(self.assignment)(
            {node: color for node, color in state["assignment"]}
        )
        self.metrics = MetricsCollector.from_records(
            [
                EventRecord(
                    kind=kind,
                    node=node,
                    recodings=recodings,
                    messages=messages,
                    max_color_after=max_color_after,
                )
                for kind, node, recodings, messages, max_color_after in state["metrics"]
            ]
        )
        return self

    def react(self, graph: AdHocDigraph, delta: TopologyDelta) -> RecodeResult:
        """Handle one applied event: recode, commit, record metrics."""
        kind = delta.kind
        strategy = self.strategy
        if kind == "join":
            result = strategy.on_join(graph, self.assignment, delta.node_id)
        elif kind == "leave":
            old_color = self.assignment.unassign(delta.node_id)
            result = strategy.on_leave(graph, self.assignment, delta.node_id, old_color)
        elif kind == "move":
            result = strategy.on_move(graph, self.assignment, delta.node_id)
        elif kind in ("power_increase", "power_decrease"):
            result = strategy.on_power_change(
                graph,
                self.assignment,
                delta.node_id,
                increased=kind == "power_increase",
                old_conflict_neighbors=set(delta.old_conflicts),
            )
        else:  # pragma: no cover - apply_event only emits the kinds above
            raise ConfigurationError(f"unknown delta kind {kind!r}")
        for node, (_old, new) in result.changes.items():
            self.assignment.assign(node, new)
        self.metrics.record(result, self.assignment.max_color())
        if self.validate:
            assert_valid(graph, self.assignment)
        return result


class _TopologyOwner:
    """Shared plumbing of the single- and multi-lane facades: one graph,
    one connectivity policy, one event entry point."""

    def __init__(
        self,
        *,
        propagation: PropagationModel | None,
        enforce_connectivity: bool,
    ) -> None:
        self.graph = AdHocDigraph(propagation)
        self.enforce_connectivity = enforce_connectivity

    def _advance_topology(self, event: Event) -> TopologyDelta:
        """Apply ``event`` to the shared graph and police connectivity."""
        delta = self.graph.apply_event(event)
        if delta.kind != "leave":
            self._check_connectivity(delta.node_id, delta.kind)
        return delta

    def node_ids(self) -> list[NodeId]:
        """Current node ids, ascending."""
        return self.graph.node_ids()

    def _check_connectivity(self, node_id: NodeId, action: str) -> None:
        if self.enforce_connectivity and len(self.graph) > 1:
            if not has_minimal_connectivity(self.graph, node_id):
                raise ConnectivityError(
                    f"{action} of node {node_id} violates Minimal Connectivity "
                    "(needs at least one in- and one out-neighbor)"
                )


class AdHocNetwork(_TopologyOwner):
    """A live power-controlled ad-hoc network under a recoding strategy.

    Parameters
    ----------
    strategy:
        The recoding strategy invoked after every topology change.
    propagation:
        Propagation model (default free space).
    validate:
        When True, assert CA1/CA2 validity after every event (slow;
        meant for tests).
    enforce_connectivity:
        When True, reject reconfigurations that violate the paper's
        Minimal Connectivity assumption.
    """

    def __init__(
        self,
        strategy: RecodingStrategy,
        *,
        propagation: PropagationModel | None = None,
        validate: bool = False,
        enforce_connectivity: bool = False,
    ) -> None:
        super().__init__(propagation=propagation, enforce_connectivity=enforce_connectivity)
        self.lane = StrategyLane(strategy, validate=validate)

    # ------------------------------------------------------------------
    # Lane delegation (the pre-split public attributes)
    # ------------------------------------------------------------------
    @property
    def strategy(self) -> RecodingStrategy:
        """The lane's recoding strategy."""
        return self.lane.strategy

    @property
    def assignment(self) -> CodeAssignment:
        """The lane's current code assignment."""
        return self.lane.assignment

    @assignment.setter
    def assignment(self, value: CodeAssignment) -> None:
        # Compaction workflows (gossip / Kempe) swap in a recolored
        # assignment wholesale; the lane adopts it.
        self.lane.assignment = value

    @property
    def metrics(self) -> MetricsCollector:
        """The lane's metrics collector."""
        return self.lane.metrics

    @property
    def validate(self) -> bool:
        """Whether every event is followed by a full CA1/CA2 check."""
        return self.lane.validate

    @validate.setter
    def validate(self, value: bool) -> None:
        self.lane.validate = value

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> RecodeResult:
        """Apply one reconfiguration event and recode per the strategy."""
        delta = self._advance_topology(event)
        return self.lane.react(self.graph, delta)

    def join(self, cfg: NodeConfig) -> RecodeResult:
        """A new node connects (paper section 4.1)."""
        return self.apply(JoinEvent(cfg))

    def leave(self, node_id: NodeId) -> RecodeResult:
        """A node disconnects (paper section 4.3)."""
        return self.apply(LeaveEvent(node_id))

    def move(self, node_id: NodeId, x: float, y: float) -> RecodeResult:
        """A node relocates in one discrete step (paper section 4.4)."""
        return self.apply(MoveEvent(node_id, x, y))

    def set_range(self, node_id: NodeId, new_range: float) -> RecodeResult:
        """A node changes transmission power (paper sections 4.2 / 4.3).

        Equal-range "changes" are treated as decreases (no new
        constraints arise), i.e. no recoding.
        """
        return self.apply(PowerChangeEvent(node_id, new_range))

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def max_color(self) -> int:
        """Maximum code index currently assigned."""
        return self.lane.assignment.max_color()

    def is_valid(self) -> bool:
        """Whether the current assignment satisfies CA1 and CA2."""
        from repro.coloring.verify import is_valid

        return is_valid(self.graph, self.lane.assignment)


class MultiStrategyReplay(_TopologyOwner):
    """Replay one event stream against many strategies in a single pass.

    The paper's evaluation compares strategies on *identical* workloads.
    Rebuilding an :class:`AdHocNetwork` per strategy re-derives the same
    topology mutations and conflict deltas once per strategy; this class
    applies each event to one shared :class:`AdHocDigraph` exactly once
    and fans the resulting :class:`TopologyDelta` out to a
    :class:`StrategyLane` per strategy.  Because strategies only read
    the graph (the handler contract forbids topology mutation) and the
    graph memoizes derived conflict queries per topology version, every
    lane sees byte-identical inputs to an independent replay — pinned by
    ``tests/sim/test_replay.py``.

    Parameters
    ----------
    strategies:
        The per-lane strategy instances (one lane each, in order).
    propagation, validate, enforce_connectivity:
        As for :class:`AdHocNetwork`; ``validate`` applies to all lanes.
    """

    def __init__(
        self,
        strategies: Sequence[RecodingStrategy],
        *,
        propagation: PropagationModel | None = None,
        validate: bool = False,
        enforce_connectivity: bool = False,
    ) -> None:
        if not strategies:
            raise ConfigurationError("MultiStrategyReplay needs at least one strategy")
        super().__init__(propagation=propagation, enforce_connectivity=enforce_connectivity)
        self.lanes = [StrategyLane(s, validate=validate) for s in strategies]

    def lane(self, name: str) -> StrategyLane:
        """The lane whose strategy is named ``name`` (first match)."""
        for lane in self.lanes:
            if lane.name == name:
                return lane
        known = ", ".join(lane.name for lane in self.lanes)
        raise ConfigurationError(f"no lane named {name!r}; lanes: {known}")

    def fork(self) -> "MultiStrategyReplay":
        """An independent replay continuing from the current state.

        The snapshot/warm-start primitive of paired delta sweeps: build
        the shared baseline network once, then fork it per sweep value
        and replay only that value's perturbation rounds.  The graph
        forks copy-on-write (:meth:`AdHocDigraph.fork` — the heavy
        adjacency/C2 state is shared until either side mutates) and
        every lane's assignment/metrics state is forked, so the
        continuation is byte-equivalent to replaying the whole trace
        cold — pinned by ``tests/sim/test_warmstart.py``.
        """
        clone = MultiStrategyReplay.__new__(MultiStrategyReplay)
        clone.graph = self.graph.fork()
        clone.enforce_connectivity = self.enforce_connectivity
        clone.lanes = [lane.fork() for lane in self.lanes]
        return clone

    @property
    def version(self) -> int:
        """The underlying graph's topology version (delta anchor)."""
        return self.graph.version

    def delta_snapshot(self, base_version: int) -> dict:
        """Serialize only what changed since graph ``base_version``.

        The O(changes) counterpart of :meth:`snapshot`: the graph
        contributes a :meth:`~repro.topology.digraph.AdHocDigraph.delta_snapshot`
        while lane state (assignments, metrics counters) serializes in
        full — it is O(N) per lane, noise next to the O(N²)/O(N+E)
        conflict state the graph delta avoids.  :meth:`apply_delta` on
        a replay forked at ``base_version`` reproduces this replay's
        state byte-identically; chained deltas compose.
        """
        return {
            "schema": 1,
            "kind": "replay-delta",
            "graph": self.graph.delta_snapshot(base_version),
            "enforce_connectivity": self.enforce_connectivity,
            "lanes": [lane.state_dict() for lane in self.lanes],
        }

    def apply_delta(self, delta: dict) -> None:
        """Replay a :meth:`delta_snapshot` onto this replay instance.

        The graph must sit at the delta's base version (enforced by
        :meth:`AdHocDigraph.apply_delta`, which names both versions on
        mismatch); lane state is replaced wholesale, with the strategy
        name check of :meth:`StrategyLane.load_state` guarding lineup
        drift.
        """
        if delta.get("kind") != "replay-delta":
            raise ConfigurationError("apply_delta() expects a delta_snapshot() dict")
        if delta.get("schema") != 1:
            raise ConfigurationError(
                f"unsupported replay delta schema {delta.get('schema')!r}"
            )
        if len(delta["lanes"]) != len(self.lanes):
            raise ConfigurationError(
                f"replay delta carries {len(delta['lanes'])} lanes, "
                f"this replay has {len(self.lanes)}"
            )
        self.graph.apply_delta(delta["graph"])
        self.enforce_connectivity = bool(delta["enforce_connectivity"])
        for lane, state in zip(self.lanes, delta["lanes"]):
            lane.load_state(state)

    def snapshot(self) -> dict:
        """Serialize the whole replay state to a JSON-able dict.

        A serializable checkpoint: the graph's
        :meth:`~repro.topology.digraph.AdHocDigraph.snapshot` plus every
        lane's :meth:`~StrategyLane.state_dict`.  :meth:`restore` at any
        point of an event chain — mid-sweep, between perturbation
        rounds — continues byte-identically to the live instance
        (pinned by ``tests/sim/test_timeline.py``), so checkpoints can
        outlive the process that took them.  The digraph records
        topology state, not the conflict core that produced it, and
        lane assignments serialize as sorted ``(node, color)`` pairs
        whichever container holds them.
        """
        return {
            "schema": 1,
            "graph": self.graph.snapshot(),
            "enforce_connectivity": self.enforce_connectivity,
            "lanes": [lane.state_dict() for lane in self.lanes],
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        propagation: PropagationModel | None = None,
        validate: bool = False,
    ) -> "MultiStrategyReplay":
        """Rebuild a replay from a :meth:`snapshot` dict.

        Strategy objects are reconstructed by name (strategies carry no
        inter-event state); the graph restore enforces the snapshot's
        propagation contract, so a checkpoint taken under a non-default
        model cannot be silently resumed under free space.
        """
        from repro.strategies import make_strategy

        if snapshot.get("schema") != 1:
            raise ConfigurationError(
                f"unsupported replay snapshot schema {snapshot.get('schema')!r}"
            )
        clone = cls.__new__(cls)
        clone.graph = AdHocDigraph.restore(snapshot["graph"], propagation=propagation)
        clone.enforce_connectivity = bool(snapshot["enforce_connectivity"])
        clone.lanes = [
            StrategyLane(make_strategy(state["strategy"]), validate=validate).load_state(state)
            for state in snapshot["lanes"]
        ]
        return clone

    def apply(self, event: Event) -> list[RecodeResult]:
        """Apply one event: mutate topology once, react in every lane."""
        delta = self._advance_topology(event)
        graph = self.graph
        return [lane.react(graph, delta) for lane in self.lanes]

    def run(self, events: Iterable[Event]) -> "MultiStrategyReplay":
        """Apply ``events`` in order; returns self for chaining."""
        for event in events:
            self.apply(event)
        return self
