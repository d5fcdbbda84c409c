"""The execution timeline: content-keyed stages and the checkpoint tree.

The sweep pipeline's heaviest experiments replay near-identical
simulation prefixes: every point of a paired delta sweep rebuilds the
same baseline network, and a sweep over round counts rebuilds rounds
``1..k-1`` to sample round ``k``.  This module generalizes the PR 3
"baseline phase → perturbation phase" warm start into an explicit
**execution timeline**:

* :func:`build_plan` turns one (point, seed)'s
  :func:`~repro.sim.scenarios.scenario_phases` output into a
  :class:`TracePlan` — a list of :class:`Stage`\\ s (the placement/join
  stage followed by one stage per perturbation round), each carrying a
  **content key** chained from its predecessor's.  Two tasks share a
  prefix *iff* their stage-key chains share a prefix, so sharing is
  decided from what the traces actually contain, never from which sweep
  axis produced them — a divergent trace (an axis that turns out to
  affect placement or earlier rounds) simply keys apart and executes
  cold.
* :func:`compute_group` executes a set of plans over one
  :class:`CheckpointTree`: each stage boundary whose key more than one
  plan traverses is checkpointed (a
  :meth:`~repro.sim.network.MultiStrategyReplay.fork` of the full
  replay state), and every plan resumes from the deepest checkpoint its
  chain hits instead of replaying from cold.  Results are byte-identical
  to cold execution (pinned by ``tests/sim/test_timeline.py``); only
  redundant work is skipped.

This subsumes the former warm-group special case: a paired delta sweep's
points share their placement/join stage exactly as before, while sweeps
over round-structured axes (``steps``, ``cycles``) additionally chain
through the shared earlier rounds — point ``k`` forks from point
``k-1``'s last common round instead of replaying ``k-1`` rounds from the
baseline.  :func:`prefix_token` is the *plan-time* shadow of the join
stage's content key: a digest of exactly the spec fields the placement
draw and join trace consume, letting
:func:`repro.sim.sweep.plan_tasks` group tasks by shared prefix without
drawing any traces.

Serialized checkpoints record topology state, not the conflict core
that produced it: those written while the sparse core still existed
restore and continue byte-identically (pinned by a fixture in
``tests/topology/test_delta_fork.py``).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import metrics as _met
from repro.sim.metrics import MetricsSnapshot
from repro.sim.network import MultiStrategyReplay
from repro.sim.scenarios import ScenarioSpec, TracePhases, scenario_plan
from repro.sim.trace import event_to_dict
from repro.strategies import make_strategy

__all__ = [
    "CheckpointTree",
    "Stage",
    "TracePlan",
    "build_plan",
    "compute_group",
    "compute_point",
    "plan_from_phases",
    "prefix_token",
    "stage_key",
]


# ----------------------------------------------------------------------
# Stages and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stage:
    """One checkpointable segment of a run's event trace.

    ``kind`` is ``"join"`` (the placement draw's sequential join phase)
    or ``"round"`` (one perturbation round); ``index`` is 0 for the join
    stage and the 1-based round number otherwise.  ``key`` is the
    content hash of the *chain up to and including* this stage — it
    commits to every event applied so far plus the strategy lineup, so
    equal keys guarantee byte-identical replay state.
    """

    kind: str
    index: int
    events: tuple
    key: str


@dataclass(frozen=True)
class TracePlan:
    """One run's workload as a staged, content-keyed timeline.

    The staged successor of :class:`~repro.sim.scenarios.TracePhases`:
    same events in the same order, but segmented into
    :class:`Stage`\\ s whose key chain is what the checkpoint tree
    shares across tasks.  ``measure`` and ``strategies`` ride along so a
    plan is self-contained for execution and serialization
    (:func:`repro.sim.trace.save_trace` round-trips staged plans).
    """

    stages: tuple[Stage, ...]
    strategies: tuple[str, ...]
    measure: str

    @property
    def stage_keys(self) -> tuple[str, ...]:
        """The content-key chain, one entry per stage."""
        return tuple(stage.key for stage in self.stages)

    @property
    def baseline(self) -> tuple:
        """The join stage's events (empty for a stage-less plan)."""
        return self.stages[0].events if self.stages else ()

    @property
    def rounds(self) -> tuple[tuple, ...]:
        """The perturbation rounds' event tuples, in order."""
        return tuple(stage.events for stage in self.stages[1:])

    @property
    def events(self) -> list:
        """The flat event sequence (all stages, in order)."""
        return [event for stage in self.stages for event in stage.events]


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def stage_key(parent: str, kind: str, index: int, events: Sequence) -> str:
    """The content key of one stage, chained from its predecessor's.

    Hashes the serialized events together with the parent key, so a key
    commits to the entire event prefix: two stages compare equal exactly
    when everything replayed up to their boundary is byte-identical.
    """
    return _digest(
        {
            "parent": parent,
            "kind": kind,
            "index": index,
            "events": [event_to_dict(event) for event in events],
        }
    )


def plan_from_phases(
    phases: TracePhases, *, strategies: Sequence[str], measure: str
) -> TracePlan:
    """Segment a phased trace into a content-keyed :class:`TracePlan`.

    The chain root commits to the strategy lineup *and* the measure
    (checkpointed replay state embeds one lane per strategy plus
    measure-shaped sampling state — the per-round sample lists of
    ``delta_rounds`` — so states are only interchangeable between
    identically-configured walks); the join stage commits to the
    placement draw via its join events, and every round stage extends
    the chain.
    """
    root = _digest({"strategies": list(strategies), "measure": measure})
    stages = [Stage("join", 0, tuple(phases.baseline), stage_key(root, "join", 0, phases.baseline))]
    for t, round_events in enumerate(phases.rounds, start=1):
        stages.append(
            Stage(
                "round",
                t,
                tuple(round_events),
                stage_key(stages[-1].key, "round", t, round_events),
            )
        )
    return TracePlan(stages=tuple(stages), strategies=tuple(strategies), measure=measure)


def build_plan(point: ScenarioSpec, seed) -> TracePlan:
    """One (resolved point, seed)'s staged workload.

    Draws the trace exactly as cold execution would
    (:func:`~repro.sim.scenarios.scenario_plan` under
    ``np.random.default_rng(seed)``), so the plan's flat event sequence
    is byte-identical to the unstaged one.
    """
    return scenario_plan(point, np.random.default_rng(seed))


def prefix_token(point: ScenarioSpec, seed) -> str:
    """Plan-time token of the placement/join prefix, without drawing it.

    Digests exactly what the placement draw and join trace consume — the
    node count, arena, range interval, placement law, the seed, and the
    strategy lineup the checkpointed state embeds.  Two (point, seed)
    tasks with equal tokens produce byte-identical join stages, so the
    planner groups them for prefix sharing; fields the token excludes
    (mobility, churn, power, measure) only shape *later* stages, whose
    sharing the content keys decide at execution time.
    """
    from repro.sim.results import seed_token

    placement = point.placement
    return _digest(
        {
            "seed": seed_token(seed),
            "n": point.n,
            "area": list(point.area),
            "min_range": point.min_range,
            "max_range": point.max_range,
            "placement": [
                placement.kind,
                placement.cluster_rate,
                placement.cluster_sigma,
                placement.hotspot_fraction,
                placement.hotspot_radius,
            ],
            "strategies": list(point.strategies),
        }
    )


# ----------------------------------------------------------------------
# Execution state and the checkpoint tree
# ----------------------------------------------------------------------
class _ExecState:
    """The full execution cursor of one task at a stage boundary.

    Wraps the replay (graph + lanes) together with the measurement state
    the walk accumulates: the post-join metric baselines delta measures
    subtract from, and the per-round samples of ``delta_rounds``
    measures.  Forking copies all three, so a checkpoint taken at any
    boundary resumes with the measurement context intact — a task that
    forks at round ``j`` still reports deltas against the join-stage
    baseline it never replayed itself.
    """

    __slots__ = ("replay", "baselines", "samples", "base_key", "base_version")

    def __init__(
        self,
        replay: MultiStrategyReplay,
        baselines: list | None = None,
        samples: list[list[list[float]]] | None = None,
    ) -> None:
        self.replay = replay
        self.baselines = baselines
        self.samples = [] if samples is None else samples
        # The last *serialized* boundary on this state's lineage — the
        # anchor the next delta payload is cut against.  ``None``/0 means
        # "the fresh pre-join state" (graph version 0).
        self.base_key: str | None = None
        self.base_version: int = 0

    @classmethod
    def fresh(cls, strategies: Sequence[str]) -> "_ExecState":
        return cls(MultiStrategyReplay([make_strategy(name) for name in strategies]))

    def fork(self) -> "_ExecState":
        """An independent continuation (copy-on-write graph, samples copied)."""
        clone = _ExecState(
            self.replay.fork(),
            None if self.baselines is None else list(self.baselines),
            [list(lane_samples) for lane_samples in self.samples],
        )
        clone.base_key = self.base_key
        clone.base_version = self.base_version
        return clone

    def delta_payload(self) -> dict:
        """This boundary serialized as a delta against ``base_key``.

        ``replay`` holds only the graph slots touched since
        ``base_version`` (plus the full lane state, which is O(N) and
        dominated by the O(N²)/O(N+E) graph it avoids copying); applying
        the chain root-to-leaf onto a fresh state reproduces this
        boundary byte-identically on any conflict core.
        """
        return {
            "schema": 1,
            "kind": "exec-delta",
            "base": self.base_key,
            "base_version": self.base_version,
            "version": self.replay.version,
            "replay": self.replay.delta_snapshot(self.base_version),
            "baselines": _encode_baselines(self.baselines),
            "samples": [[list(t) for t in lane] for lane in self.samples],
        }

    def apply_stage(self, stage: Stage, measure: str) -> None:
        """Replay one stage's events and record its measurement state."""
        replay = self.replay
        for event in stage.events:
            replay.apply(event)
        if stage.kind == "join":
            # the post-baseline snapshot every delta measure subtracts from
            self.baselines = [lane.metrics.snapshot() for lane in replay.lanes]
            if measure == "delta_rounds":
                self.samples = [[] for _ in replay.lanes]
        elif measure == "delta_rounds":
            for i, (before, lane) in enumerate(zip(self.baselines, replay.lanes)):
                self.samples[i].append(_delta_triple(before, lane))

    def result(self, measure: str) -> list:
        """The member result in the executor's wire shape."""
        lanes = self.replay.lanes
        if measure == "absolute":
            return [
                [
                    float(lane.assignment.max_color()),
                    float(lane.metrics.total_recodings),
                    float(lane.metrics.total_messages),
                ]
                for lane in lanes
            ]
        if measure == "delta":
            return [_delta_triple(before, lane) for before, lane in zip(self.baselines, lanes)]
        return [list(lane_samples) for lane_samples in self.samples]


def _delta_triple(before, lane) -> list[float]:
    delta = before.delta(lane.metrics.snapshot())
    return [
        float(delta.max_color),
        float(delta.total_recodings),
        float(delta.total_messages),
    ]


def _encode_baselines(baselines: list | None) -> list | None:
    if baselines is None:
        return None
    return [[b.events, b.total_recodings, b.total_messages, b.max_color] for b in baselines]


def _decode_baselines(data: list | None) -> list | None:
    if data is None:
        return None
    return [MetricsSnapshot(int(e), int(r), int(m), int(c)) for e, r, m, c in data]


class CheckpointTree:
    """Checkpointed replay states, addressed by stage key.

    The tree of one task group's execution: node identity is the stage
    key (which commits to the whole event prefix, so the "tree"
    structure is implicit in the key chains), node payload is a frozen
    :class:`_ExecState` fork.  A checkpoint stored with a ``consumers``
    budget is reference-counted: each resume decrements it, the final
    consumer takes the stored state *by move* (no fork), and the node
    is evicted — so a K-point round chain holds one live checkpoint at
    a time instead of K.  Checkpoints stored without a budget are
    pinned (externally threaded trees).  ``hits``/``stored``/``evicted``
    feed the trace report and tests.

    With a ``store`` (a results backend exposing
    ``put_checkpoint``/``get_checkpoint``) the tree is **chained**: it
    additionally keeps every checkpointed boundary as a **(base key,
    delta) chain link** — an O(changes) payload cut against the
    previous serialized boundary on the same lineage — and writes it
    through to the store, so a second process or host resumes a
    boundary some other worker walked by walking its chain back to the
    fresh root and applying payloads forward.  Without a store the tree
    keeps live forks only, with no serialization.
    """

    def __init__(self, *, store=None) -> None:
        self._states: dict[str, _ExecState] = {}
        self._consumers: dict[str, int] = {}
        self._chains: dict[str, dict] = {}
        self._store = store
        self.hits = 0
        self.stored = 0
        self.evicted = 0
        self.delta_stored = 0
        self.delta_applied = 0
        self.delta_bytes = 0
        self.rebuilds = 0

    def __contains__(self, key: str) -> bool:
        return key in self._states

    def __len__(self) -> int:
        return len(self._states)

    @property
    def chained(self) -> bool:
        """Whether boundaries are serialized as delta chains."""
        return self._store is not None

    def checkpoint(
        self, key: str, state: _ExecState, *, consumers: int | None = None, live: bool = True
    ) -> None:
        """Record ``state``'s boundary under ``key`` (first writer wins).

        ``consumers`` is the number of resumes expected at this
        boundary; ``None`` pins the checkpoint for the tree's lifetime.
        When the tree is chained, the boundary is also serialized as a
        delta link (and written through to the store, if any);
        ``live=False`` records only the link — used for boundaries no
        plan in *this* group resumes from, but a later process might.
        """
        if self.chained and key not in self._chains:
            self._chains[key] = self._persist(key, state)
        if not live:
            return
        if key not in self._states:
            self._states[key] = state.fork()
            self.stored += 1
            if consumers is not None:
                self._consumers[key] = consumers

    def _persist(self, key: str, state: _ExecState) -> dict:
        """Cut ``state``'s delta link, write it through, advance its anchor."""
        with obs.span("ckpt.serialize", cat="ckpt", key=key):
            payload = state.delta_payload()
            self.delta_stored += 1
            self.delta_bytes += len(json.dumps(payload, separators=(",", ":")))
            if self._store is not None:
                self._store.put_checkpoint(key, payload)
        # Future boundaries on this lineage chain from here.
        state.base_key = key
        state.base_version = payload["version"]
        return payload

    def _chain_entry(self, key: str) -> dict | None:
        entry = self._chains.get(key)
        if entry is None and self._store is not None:
            entry = self._store.get_checkpoint(key)
            if entry is not None:
                self._chains[key] = entry
        return entry

    def _rebuild(self, key: str, strategies: Sequence[str]) -> _ExecState:
        """Reconstruct a boundary with no live state from its delta chain."""
        chain = []
        k = key
        while k is not None:
            entry = self._chain_entry(k)
            if entry is None:
                raise ConfigurationError(
                    f"checkpoint chain for {key} is broken: link {k} is missing"
                )
            chain.append(entry)
            k = entry["base"]
        state = _ExecState.fresh(strategies)
        with obs.span("ckpt.restore", cat="ckpt", key=key, links=len(chain)):
            for entry in reversed(chain):
                state.replay.apply_delta(entry["replay"])
                self.delta_applied += 1
        leaf = chain[0]
        state.baselines = _decode_baselines(leaf["baselines"])
        state.samples = [[list(t) for t in lane] for lane in leaf["samples"]]
        state.base_key = key
        state.base_version = leaf["version"]
        self.rebuilds += 1
        return state

    def _consume(self, key: str) -> None:
        """Decrement a rebuilt boundary's consumer budget (no live state)."""
        left = self._consumers.get(key)
        if left is not None:
            if left <= 1:
                del self._consumers[key]
            else:
                self._consumers[key] = left - 1

    def resume(self, plan: TracePlan) -> tuple[_ExecState, int]:
        """Continue from the deepest checkpoint on ``plan``'s chain.

        Returns ``(state, start)`` where ``start`` is the index of the
        first stage still to replay — ``(fresh state, 0)`` when no
        prefix is checkpointed.  A consumer-counted checkpoint's final
        resume receives the stored state itself and evicts the node;
        earlier resumes (and pinned checkpoints) receive forks.  On a
        chained tree, a boundary with no live state (recorded
        ``live=False``, or written by another process into the store)
        is rebuilt from its delta chain.
        """
        for i in range(len(plan.stages) - 1, -1, -1):
            key = plan.stages[i].key
            cached = self._states.get(key)
            if cached is None:
                if self.chained and self._chain_entry(key) is not None:
                    state = self._rebuild(key, plan.strategies)
                    self.hits += 1
                    self._consume(key)
                    return state, i + 1
                continue
            self.hits += 1
            left = self._consumers.get(key)
            if left is not None and left <= 1:
                del self._states[key]
                del self._consumers[key]
                self.evicted += 1
                return cached, i + 1  # last consumer: take it by move
            if left is not None:
                self._consumers[key] = left - 1
            return cached.fork(), i + 1
        return _ExecState.fresh(plan.strategies), 0


# ----------------------------------------------------------------------
# Computation kernel
# ----------------------------------------------------------------------
def compute_point(point: ScenarioSpec, seed) -> list:
    """Cold-compute one (point, run): the unshared timeline walk."""
    plan = build_plan(point, seed)
    state = _ExecState.fresh(plan.strategies)
    for stage in plan.stages:
        state.apply_stage(stage, plan.measure)
    if _met.ENABLED:
        _met.REGISTRY.inc("timeline.rounds.replayed", len(plan.stages))
    return state.result(plan.measure)


def compute_group(
    points: Sequence[ScenarioSpec],
    seed,
    *,
    share: bool = True,
    on_member=None,
    tree: CheckpointTree | None = None,
    store=None,
) -> list[list]:
    """Execute one task group's members; returns results in member order.

    With ``share`` (the default for warm-planned groups) all members'
    plans are built first, every stage key traversed by more than one
    plan becomes a checkpoint when first reached, and each member
    resumes from the deepest checkpoint its chain hits.  Because keys
    are content-derived, a member whose trace diverges (a sweep axis
    that does affect placement or an earlier round) shares nothing and
    replays cold — sharing can only skip redundant work, never change
    results.

    ``on_member(index, result)`` fires after each member completes (the
    executors' persist-and-renew hook); ``tree`` lets callers thread one
    checkpoint tree through several calls (the bench does).  ``store``
    (a results backend with a checkpoint table) makes the tree chained:
    every in-group boundary plus each plan's join and final stages are
    written through as delta links, and resume consults the store — so
    a different process or host that already walked a shared prefix
    saves this group the replay.
    """
    results: list[list] = []

    def _landed(out: list) -> list:
        if on_member is not None:
            on_member(len(results), out)
        results.append(out)
        return out

    if not share or len(points) == 1:
        for point in points:
            _landed(compute_point(point, seed))
        return results
    plans = [build_plan(point, seed) for point in points]
    needed = _resume_boundaries(plans)
    if tree is None:
        tree = CheckpointTree(store=store)
    # tree counters are cumulative (callers may thread one tree through
    # many groups), so the metrics record this walk's delta only
    stored0, hits0, evicted0 = tree.stored, tree.hits, tree.evicted
    dstored0, dapplied0, dbytes0 = tree.delta_stored, tree.delta_applied, tree.delta_bytes
    chained = tree.chained
    for plan in plans:
        state, start = tree.resume(plan)
        last = len(plan.stages) - 1
        for idx in range(start, len(plan.stages)):
            stage = plan.stages[idx]
            state.apply_stage(stage, plan.measure)
            consumers = needed.get(stage.key)
            if consumers:
                tree.checkpoint(stage.key, state, consumers=consumers)
            elif chained and (idx == 0 or idx == last):
                # Boundaries no plan here resumes from, but a sibling
                # worker draining an adjacent group might: the shared
                # join prefix and the deepest state this plan reaches.
                tree.checkpoint(stage.key, state, live=False)
        if _met.ENABLED:
            _met.REGISTRY.inc("timeline.rounds.saved", start)
            _met.REGISTRY.inc("timeline.rounds.replayed", len(plan.stages) - start)
        _landed(state.result(plan.measure))
    if _met.ENABLED:
        _met.REGISTRY.inc("timeline.checkpoint.stored", tree.stored - stored0)
        _met.REGISTRY.inc("timeline.checkpoint.hits", tree.hits - hits0)
        _met.REGISTRY.inc("timeline.checkpoint.evicted", tree.evicted - evicted0)
        if chained:
            _met.REGISTRY.inc("ckpt.delta.stored", tree.delta_stored - dstored0)
            _met.REGISTRY.inc("ckpt.delta.applied", tree.delta_applied - dapplied0)
            _met.REGISTRY.inc("ckpt.delta.bytes", tree.delta_bytes - dbytes0)
    return results


def _resume_boundaries(plans: Sequence[TracePlan]) -> dict[str, int]:
    """``{stage key: resume count}`` for boundaries later plans fork from.

    Checkpointing is a full state fork (graph arrays + every lane's
    history), so storing every shared boundary wastes most of the work:
    in a linear round chain only the *deepest* boundary a plan shares
    with its predecessors is ever forked — shallower shared stages are
    shadowed.  Because stage keys chain (a key commits to its parent),
    a plan's chain diverges from the already-walked set at exactly one
    depth, so each later plan contributes exactly one resume at its
    deepest shared key.  The counts let the tree evict each checkpoint
    after its final consumer.
    """
    needed: dict[str, int] = {}
    walked: set[str] = set(plans[0].stage_keys) if plans else set()
    for plan in plans[1:]:
        deepest = None
        for key in plan.stage_keys:
            if key not in walked:
                break  # chained keys: once diverged, stays diverged
            deepest = key
        if deepest is not None:
            needed[deepest] = needed.get(deepest, 0) + 1
        walked.update(plan.stage_keys)
    return needed
