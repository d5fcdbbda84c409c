"""Checkpoint-timeline equivalence pins: stages, trees, chained restores.

The acceptance criterion of the execution-timeline refactor: series
produced with checkpoint-tree prefix sharing are byte-identical to cold
execution for every registered scenario, round-level sharing included.
Extends the PR 3 warm-start pins in ``test_warmstart.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent
from repro.sim.network import MultiStrategyReplay
from repro.sim.random_networks import sample_configs
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.scenarios import scenario_phases, scenario_plan
from repro.sim.sweep import build_sweep, plan_tasks, run_sweep
from repro.sim.timeline import (
    CheckpointTree,
    build_plan,
    compute_group,
    compute_point,
    prefix_token,
)
from repro.strategies import make_strategy
from tests.conftest import per_value_json, series_json


def steps_spec(**overrides):
    """A paired delta sweep over round counts: the deep-sharing shape."""
    spec = replace(
        get_scenario("fig12-move-rounds"),
        n=10,
        strategies=("Minim", "CP"),
        sweep_axis="steps",
        sweep_values=(2.0, 4.0, 6.0),
        measure="delta",
    )
    return replace(spec, **overrides) if overrides else spec


def paired_spec(**overrides):
    spec = replace(
        get_scenario("fig11-power"),
        n=12,
        strategies=("Minim", "CP"),
        sweep_values=(2.0, 3.0, 4.0),
    )
    return replace(spec, **overrides) if overrides else spec


# ----------------------------------------------------------------------
# Stage keys
# ----------------------------------------------------------------------
class TestStageKeys:
    def test_round_structured_axis_chains_are_prefixes(self):
        # the property round-level sharing rests on: the steps=2 trace
        # is a stage-key prefix of the steps=4 trace on the same seed
        seed = np.random.SeedSequence(7)
        base = steps_spec()
        plans = [
            build_plan(replace(base, mobility=replace(base.mobility, steps=k)), seed)
            for k in (2, 4, 6)
        ]
        assert [len(p.stages) for p in plans] == [3, 5, 7]  # join + k rounds
        for shorter, longer in zip(plans, plans[1:]):
            assert longer.stage_keys[: len(shorter.stage_keys)] == shorter.stage_keys

    def test_keys_commit_to_strategies_seed_and_measure(self):
        spec = steps_spec()
        a = build_plan(spec, np.random.SeedSequence(1))
        b = build_plan(spec, np.random.SeedSequence(2))
        assert a.stage_keys[0] != b.stage_keys[0]  # different draw, different chain
        c = build_plan(replace(spec, strategies=("Minim",)), np.random.SeedSequence(1))
        assert a.stage_keys[0] != c.stage_keys[0]  # lane lineup is part of the root
        # checkpointed state is measure-shaped (delta_rounds carries
        # per-round sample lists), so the measure keys chains apart too
        d = build_plan(
            replace(spec, measure="absolute", paired_runs=False), np.random.SeedSequence(1)
        )
        assert a.stage_keys[0] != d.stage_keys[0]

    def test_placement_affecting_fields_key_apart(self):
        seed = np.random.SeedSequence(3)
        base = build_plan(steps_spec(), seed)
        bigger = build_plan(replace(steps_spec(), n=11), seed)
        wider = build_plan(replace(steps_spec(), min_range=5.0, max_range=80.0), seed)
        assert base.stage_keys[0] != bigger.stage_keys[0]
        assert base.stage_keys[0] != wider.stage_keys[0]

    def test_plan_flat_events_match_unstaged_phases(self):
        spec = steps_spec()
        seed = np.random.SeedSequence(11)
        plan = build_plan(spec, seed)
        phases = scenario_phases(spec, np.random.default_rng(seed))
        assert plan.events == phases.events
        assert plan.baseline == phases.baseline
        assert plan.rounds == phases.rounds

    def test_scenario_plan_matches_build_plan(self):
        spec = steps_spec()
        seed = np.random.SeedSequence(5)
        via_scenarios = scenario_plan(spec, np.random.default_rng(seed))
        assert via_scenarios.stage_keys == build_plan(spec, seed).stage_keys


class TestPrefixToken:
    def test_token_tracks_placement_inputs_only(self):
        seed = np.random.SeedSequence(9)
        base = steps_spec()
        assert prefix_token(base, seed) == prefix_token(
            replace(base, mobility=replace(base.mobility, steps=9, maxdisp=70.0)), seed
        )
        assert prefix_token(base, seed) != prefix_token(replace(base, n=11), seed)
        assert prefix_token(base, seed) != prefix_token(base, np.random.SeedSequence(10))
        assert prefix_token(base, seed) != prefix_token(
            replace(base, strategies=("Minim",)), seed
        )

    def test_token_agrees_with_join_stage_key_sharing(self):
        # equal tokens must imply equal join-stage content keys — the
        # planner's static judgment matches the executed reality
        seed = np.random.SeedSequence(13)
        a, b = steps_spec(), steps_spec(mobility=replace(steps_spec().mobility, steps=8))
        assert prefix_token(a, seed) == prefix_token(b, seed)
        assert build_plan(a, seed).stage_keys[0] == build_plan(b, seed).stage_keys[0]


# ----------------------------------------------------------------------
# Checkpoint-tree execution
# ----------------------------------------------------------------------
class TestCheckpointTreeEquivalence:
    def test_shared_walk_equals_cold_per_member(self):
        sweep = build_sweep(steps_spec(), runs=1, seed=3)
        (group,) = plan_tasks(sweep)
        assert group.warm and len(group.points) == 3
        shared = compute_group(group.points, group.seed)
        cold = [compute_point(point, group.seed) for point in group.points]
        assert shared == cold

    def test_tree_shares_rounds_not_just_the_baseline(self):
        sweep = build_sweep(steps_spec(), runs=1, seed=3)
        (group,) = plan_tasks(sweep)
        tree = CheckpointTree()
        compute_group(group.points, group.seed, tree=tree)
        # only resume boundaries are checkpointed: member 2 resumes at
        # member 1's round 2, member 3 at member 2's round 4 — shallower
        # shared stages are shadowed and never stored, and each
        # checkpoint is evicted by its final consumer
        assert tree.stored == 2
        assert tree.hits == 2  # members 2 and 3 each resume mid-chain
        assert tree.evicted == 2
        assert len(tree) == 0  # nothing outlives its last consumer

    def test_only_deepest_shared_boundaries_are_checkpointed(self):
        from repro.sim.timeline import _resume_boundaries

        seed = np.random.SeedSequence(3)
        base = steps_spec()
        plans = [
            build_plan(replace(base, mobility=replace(base.mobility, steps=k)), seed)
            for k in (2, 4, 6)
        ]
        needed = _resume_boundaries(plans)
        # plan 2 resumes at plan 1's last round (r2), plan 3 at plan 2's (r4)
        assert needed == {plans[0].stage_keys[2]: 1, plans[1].stage_keys[4]: 1}

    def test_pinned_checkpoints_survive_their_resumes(self):
        # a checkpoint stored without a consumer budget (externally
        # threaded trees) is never evicted
        sweep = build_sweep(steps_spec(), runs=1, seed=3)
        (group,) = plan_tasks(sweep)
        plan = build_plan(group.points[0], group.seed)
        from repro.sim.timeline import _ExecState

        tree = CheckpointTree()
        state = _ExecState.fresh(plan.strategies)
        for stage in plan.stages:
            state.apply_stage(stage, plan.measure)
        tree.checkpoint(plan.stages[-1].key, state)  # pinned
        for _ in range(3):
            resumed, start = tree.resume(plan)
            assert start == len(plan.stages)
            assert resumed is not state
        assert len(tree) == 1 and tree.evicted == 0

    def test_divergent_placement_falls_back_to_cold(self):
        # regression: a hand-built "shared" group over a placement-
        # affecting axis must fall back to cold execution, never reuse
        # a stale prefix
        points = (steps_spec(), replace(steps_spec(), n=11))
        seed = np.random.SeedSequence(5)
        tree = CheckpointTree()
        shared = compute_group(points, seed, share=True, tree=tree)
        assert tree.hits == 0  # nothing shared: every chain keyed apart
        assert shared == [compute_point(p, seed) for p in points]

    def test_placement_axis_sweep_plans_cold_and_matches_no_share(self):
        spec = paired_spec(sweep_axis="n", sweep_values=(10.0, 12.0))
        groups = plan_tasks(build_sweep(spec, runs=2, seed=1))
        assert all(not g.warm and len(g.points) == 1 for g in groups)
        shared = run_sweep(spec, runs=2, seed=1)
        assert series_json(shared) == per_value_json(spec, runs=2, seed=1)

    def test_delta_rounds_decomposes_into_steps_sweep_points(self):
        # the motivating identity: sampling round k of a delta_rounds
        # trace equals the steps=k point of a paired delta sweep — the
        # checkpoint tree makes the sweep cost one trace, not sum(k)
        rounds_spec = replace(
            get_scenario("fig12-move-rounds"),
            n=10,
            strategies=("Minim", "CP"),
            sweep_values=(4.0,),
        )
        sweep_spec = steps_spec(sweep_values=(1.0, 2.0, 3.0, 4.0))
        by_rounds = run_sweep(rounds_spec, runs=2, seed=8)
        by_points = run_sweep(sweep_spec, runs=2, seed=8)
        for metric in by_rounds.metrics:
            for strategy in by_rounds.metrics[metric]:
                assert by_rounds.metrics[metric][strategy] == pytest.approx(
                    by_points.metrics[metric][strategy]
                )

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_every_registered_scenario_is_timeline_equivalent(self, name):
        # the acceptance criterion: checkpoint-timeline series are
        # byte-identical to cold execution for all registered scenarios
        spec = get_scenario(name)
        shrunk = replace(
            spec,
            n=min(spec.n, 12),
            strategies=("Minim",),
            sweep_values=spec.sweep_values[: 1 if spec.measure == "delta_rounds" else 2],
        )
        if shrunk.paired_runs:
            shared = run_sweep(shrunk, runs=2, seed=17)
            assert series_json(shared) == per_value_json(shrunk, runs=2, seed=17)
        else:
            # distinct run seeds never share a draw: the sweep plans no
            # warm group, so its series is the cold one
            assert not any(g.warm for g in plan_tasks(build_sweep(shrunk, runs=2, seed=17)))


class _DictStore:
    """Minimal in-memory checkpoint table (the duck type trees need)."""

    def __init__(self):
        self.links: dict[str, dict] = {}
        self.puts = 0

    def put_checkpoint(self, key: str, payload: dict) -> bool:
        self.puts += 1
        if key in self.links:
            return False
        # force the JSON round trip every real store performs
        self.links[key] = json.loads(json.dumps(payload))
        return True

    def get_checkpoint(self, key: str) -> dict | None:
        return self.links.get(key)


def steps_point(steps: int):
    spec = steps_spec()
    return replace(spec, mobility=replace(spec.mobility, steps=steps))


# ----------------------------------------------------------------------
# Chained trees: delta links, store-backed sharing
# ----------------------------------------------------------------------
class TestChainedCheckpointTree:
    def test_default_tree_is_not_chained(self):
        assert not CheckpointTree().chained

    def test_rebuild_from_link_only_chain(self):
        # live=False records the serialized link without keeping state:
        # resume must walk the chain to the fresh root and apply every
        # delta forward, landing byte-identical to the cold walk
        from repro.sim.timeline import _ExecState

        seed = np.random.SeedSequence(3)
        point = steps_point(4)
        plan = build_plan(point, seed)
        tree = CheckpointTree(store=_DictStore())
        state = _ExecState.fresh(plan.strategies)
        for stage in plan.stages[:3]:
            state.apply_stage(stage, plan.measure)
            tree.checkpoint(stage.key, state, live=False)
        assert len(tree) == 0  # links only, no live state
        resumed, start = tree.resume(plan)
        assert start == 3
        assert tree.rebuilds == 1
        assert tree.delta_applied == 3
        for stage in plan.stages[start:]:
            resumed.apply_stage(stage, plan.measure)
        assert resumed.result(plan.measure) == compute_point(point, seed)

    def test_broken_chain_names_the_missing_link(self):
        from repro.sim.timeline import _ExecState

        store = _DictStore()
        plan = build_plan(steps_point(4), np.random.SeedSequence(3))
        tree = CheckpointTree(store=store)
        state = _ExecState.fresh(plan.strategies)
        for stage in plan.stages[:2]:
            state.apply_stage(stage, plan.measure)
            tree.checkpoint(stage.key, state, live=False)
        root = plan.stages[0].key
        del store.links[root]
        fresh_tree = CheckpointTree(store=store)
        with pytest.raises(ConfigurationError, match=root):
            fresh_tree.resume(plan)

    def test_store_backed_chain_is_shared_across_trees(self):
        # the fleet scenario in miniature: a second tree (a second
        # process) resumes the prefix a first tree walked, paying only
        # the rounds beyond the deepest stored boundary
        store = _DictStore()
        (g1,) = plan_tasks(build_sweep(steps_spec(sweep_values=(2.0, 4.0)), runs=1, seed=3))
        compute_group(g1.points, g1.seed, store=store)
        assert store.links  # join + resume + final boundaries persisted
        deep = steps_spec(sweep_values=(2.0, 4.0, 6.0, 8.0))
        (g2,) = plan_tasks(build_sweep(deep, runs=1, seed=3))
        tree2 = CheckpointTree(store=store)
        shared = compute_group(g2.points, g2.seed, tree=tree2)
        assert tree2.rebuilds >= 1  # picked up at least one stored boundary
        cold = [compute_point(point, g2.seed) for point in g2.points]
        assert json.dumps(shared) == json.dumps(cold)

    def test_duplicate_checkpoints_write_each_link_once(self):
        store = _DictStore()
        (group,) = plan_tasks(build_sweep(steps_spec(), runs=1, seed=3))
        compute_group(group.points, group.seed, store=store)
        before = dict(store.links)
        compute_group(group.points, group.seed, store=store)
        # second walk resumes from the store; identical content keys
        # mean no link is ever rewritten with different bytes
        assert store.links == before


class TestExecStateForkIsolation:
    def _walked(self, upto: int):
        from repro.sim.timeline import _ExecState

        plan = build_plan(steps_point(4), np.random.SeedSequence(11))
        state = _ExecState.fresh(plan.strategies)
        for stage in plan.stages[:upto]:
            state.apply_stage(stage, plan.measure)
        return plan, state

    def test_fork_mutations_never_leak_into_the_parent(self):
        plan, state = self._walked(3)
        frozen = json.dumps(state.delta_payload(), sort_keys=True)
        fork = state.fork()
        for stage in plan.stages[3:]:
            fork.apply_stage(stage, plan.measure)
        assert json.dumps(state.delta_payload(), sort_keys=True) == frozen

    def test_stored_checkpoint_is_immune_to_later_walking(self):
        # the tree stores a fork; the producer keeps walking its own
        # state — resuming later must replay from the boundary, not
        # from wherever the producer has wandered to
        plan, state = self._walked(3)
        tree = CheckpointTree()
        tree.checkpoint(plan.stages[2].key, state)
        for stage in plan.stages[3:]:
            state.apply_stage(stage, plan.measure)
        resumed, start = tree.resume(plan)
        assert start == 3
        for stage in plan.stages[start:]:
            resumed.apply_stage(stage, plan.measure)
        assert resumed.result(plan.measure) == state.result(plan.measure)

    def test_delta_payload_round_trips_measurement_state(self):
        from repro.sim.timeline import _decode_baselines, _encode_baselines

        _, state = self._walked(3)
        payload = json.loads(json.dumps(state.delta_payload()))
        assert payload["kind"] == "exec-delta"
        assert payload["base"] is None and payload["base_version"] == 0
        decoded = _decode_baselines(payload["baselines"])
        assert decoded == state.baselines
        assert _encode_baselines(decoded) == payload["baselines"]


class TestChainedScenarioEquivalence:
    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_every_scenario_chained_equals_cold(self, name):
        # the acceptance criterion with delta checkpointing ON: a
        # store-backed chained walk is byte-identical to cold execution,
        # and so is every plan resumed at each of its boundaries by a
        # fresh tree over that store — no live state, so each resume is
        # rebuilt purely from stored links — and walked on to the end
        from repro.sim.timeline import _ExecState

        spec = get_scenario(name)
        shrunk = replace(
            spec,
            n=min(spec.n, 12),
            strategies=("Minim",),
            sweep_values=spec.sweep_values[: 1 if spec.measure == "delta_rounds" else 2],
        )
        store = _DictStore()
        for group in plan_tasks(build_sweep(shrunk, runs=1, seed=17)):
            cold = [compute_point(point, group.seed) for point in group.points]
            first = compute_group(group.points, group.seed, store=store)
            assert json.dumps(first) == json.dumps(cold)
            for point, expected in zip(group.points, cold):
                plan = build_plan(point, group.seed)
                writer = CheckpointTree(store=store)
                state = _ExecState.fresh(plan.strategies)
                for stage in plan.stages:  # singleton groups stored no links
                    state.apply_stage(stage, plan.measure)
                    writer.checkpoint(stage.key, state, live=False)
                for depth in range(1, len(plan.stages) + 1):
                    tree = CheckpointTree(store=store)
                    resumed, start = tree.resume(replace(plan, stages=plan.stages[:depth]))
                    assert (start, tree.rebuilds) == (depth, 1)
                    for stage in plan.stages[start:]:
                        resumed.apply_stage(stage, plan.measure)
                    assert json.dumps(resumed.result(plan.measure)) == json.dumps(expected)


class TestGroupStageTokens:
    def test_planned_groups_carry_member_tokens(self):
        sweep = build_sweep(paired_spec(), runs=1, seed=5)
        (group,) = plan_tasks(sweep)
        assert len(group.stage_tokens) == len(group.points)
        assert len(set(group.stage_tokens)) == 1  # grouped because tokens agree
        assert group.stage_tokens[0] == prefix_token(group.points[0], group.seed)

    def test_tokens_survive_the_payload_round_trip(self):
        from repro.sim.executor import group_from_payload, group_payload

        (group,) = plan_tasks(build_sweep(paired_spec(), runs=1, seed=5))
        payload = json.loads(json.dumps(group_payload(group)))
        assert group_from_payload(payload).stage_tokens == group.stage_tokens

    def test_tokenless_legacy_payload_recomputes_tokens(self):
        from repro.sim.executor import group_from_payload, group_payload

        (group,) = plan_tasks(build_sweep(paired_spec(), runs=1, seed=5))
        payload = group_payload(group)
        del payload["stage_tokens"]
        assert group_from_payload(payload).stage_tokens == group.stage_tokens

    def test_subset_shrinks_all_member_tuples(self):
        (group,) = plan_tasks(build_sweep(paired_spec(), runs=1, seed=5))
        shrunk = group.subset([0, 2])
        assert shrunk.indices == (group.indices[0], group.indices[2])
        assert shrunk.keys == (group.keys[0], group.keys[2])
        assert shrunk.stage_tokens == (group.stage_tokens[0], group.stage_tokens[2])
        assert shrunk.warm == group.warm


# ----------------------------------------------------------------------
# Serializable checkpoints: replay snapshot/restore, chained graph restores
# ----------------------------------------------------------------------
class TestReplaySnapshotRestore:
    def _replayed(self, upto: int):
        rng = np.random.default_rng(21)
        configs = sample_configs(14, rng)
        replay = MultiStrategyReplay([make_strategy("Minim"), make_strategy("CP")])
        for cfg in configs[:upto]:
            replay.apply(JoinEvent(cfg))
        return configs, replay

    def test_restore_mid_chain_continues_byte_identically(self):
        configs, live = self._replayed(10)
        # full JSON round trip: checkpoints must survive serialization
        snap = json.loads(json.dumps(live.snapshot()))
        restored = MultiStrategyReplay.restore(snap)
        for replay in (live, restored):
            for cfg in configs[10:]:
                replay.apply(JoinEvent(cfg))
        for lane_l, lane_r in zip(live.lanes, restored.lanes):
            assert lane_l.assignment == lane_r.assignment
            assert lane_l.metrics.snapshot() == lane_r.metrics.snapshot()
            assert lane_l.metrics.records == lane_r.metrics.records

    def test_chained_snapshot_restore_chain(self):
        # snapshot -> restore -> replay -> snapshot -> restore: the
        # checkpoint-tree lifecycle, pinned end to end
        configs, live = self._replayed(8)
        hop1 = MultiStrategyReplay.restore(live.snapshot())
        for cfg in configs[8:11]:
            hop1.apply(JoinEvent(cfg))
            live.apply(JoinEvent(cfg))
        hop2 = MultiStrategyReplay.restore(json.loads(json.dumps(hop1.snapshot())))
        for cfg in configs[11:]:
            hop2.apply(JoinEvent(cfg))
            live.apply(JoinEvent(cfg))
        assert hop2.snapshot() == live.snapshot()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="replay snapshot schema"):
            MultiStrategyReplay.restore({"schema": 9})

    def test_lane_state_refuses_wrong_strategy(self):
        _, live = self._replayed(5)
        state = live.lanes[0].state_dict()
        from repro.sim.network import StrategyLane

        with pytest.raises(ConfigurationError, match="lane state is for strategy"):
            StrategyLane(make_strategy("CP")).load_state(state)


class TestDigraphSnapshotVersioning:
    def test_snapshot_records_the_propagation_model(self):
        from repro.topology.digraph import AdHocDigraph

        g = AdHocDigraph()
        snap = g.snapshot()
        assert snap["schema"] == 3
        assert snap["propagation"] == "FreeSpacePropagation"
        assert AdHocDigraph.restore(snap).snapshot() == snap  # idempotent chain

    def test_legacy_schema_1_still_restores(self):
        from repro.topology.digraph import AdHocDigraph

        g = AdHocDigraph()
        for cfg in sample_configs(6, np.random.default_rng(2)):
            g.add_node(cfg)
        snap = g.snapshot()
        legacy = {k: v for k, v in snap.items() if k != "propagation"}
        legacy["schema"] = 1
        # Schema 1 recorded the dense N×N counter block, not triples.
        n = len(snap["nodes"])
        dense = [[0] * n for _ in range(n)]
        for u, v, count in snap["c2"]:
            dense[u][v] = count
        legacy["c2"] = dense
        h = AdHocDigraph.restore(legacy)
        assert h.snapshot()["nodes"] == snap["nodes"]
        assert h.snapshot()["edges"] == snap["edges"]

    def test_non_default_propagation_must_be_supplied(self):
        from repro.geometry.obstacles import RectObstacle
        from repro.topology.digraph import AdHocDigraph
        from repro.topology.propagation import FreeSpacePropagation, ObstructedPropagation

        prop = ObstructedPropagation((RectObstacle(40.0, 40.0, 60.0, 60.0),))
        g = AdHocDigraph(prop)
        snap = g.snapshot()
        assert snap["propagation"] == "ObstructedPropagation"
        with pytest.raises(ConfigurationError, match="propagation model"):
            AdHocDigraph.restore(snap)
        with pytest.raises(ConfigurationError, match="was given"):
            AdHocDigraph.restore(snap, propagation=FreeSpacePropagation())
        restored = AdHocDigraph.restore(snap, propagation=prop)
        assert type(restored.propagation) is ObstructedPropagation
