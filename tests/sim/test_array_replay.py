"""Array vs sparse core: byte-identical sweeps, replays, checkpoints.

The conflict core follows the population, not state: every registered
scenario must produce byte-identical series on the array core and,
with the auto-promotion threshold lowered to one node, on the sparse
core — including through the checkpoint-tree timeline — and snapshots
written by either core must restore into the other, match the
brute-force topology oracle, and continue identically.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.coloring.assignment import ArrayCodeAssignment
from repro.sim.network import MultiStrategyReplay
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.scenarios import resolve_sweep, scenario_trace
from repro.sim.sweep import run_sweep
from repro.strategies import make_strategy
from tests.conftest import core_graph, restore_on, use_core
from tests.topology.oracles import assert_matches_oracle


def _shrunk(name):
    spec = get_scenario(name)
    return replace(
        spec,
        n=min(spec.n, 12),
        strategies=("Minim",),
        sweep_values=spec.sweep_values[: 1 if spec.measure == "delta_rounds" else 2],
    )


def _series_dict(spec, *, seed=23, warm_start=None):
    series = run_sweep(spec, runs=2, seed=seed, warm_start=warm_start)
    out = series.to_dict()
    out.pop("notes")  # notes record the computed/cached split, not results
    return json.dumps(out, sort_keys=True)


class TestSweepsIdenticalAcrossCores:
    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_registered_scenario_is_core_independent(self, name, monkeypatch):
        # array and sparse output is byte-identical for every registered
        # scenario, through the default checkpoint-tree timeline
        spec = _shrunk(name)
        use_core(monkeypatch, "array")
        with_array = _series_dict(spec)
        use_core(monkeypatch, "sparse")
        with_sparse = _series_dict(spec)
        assert with_sparse == with_array

    def test_core_independent_through_cold_replay_too(self, monkeypatch):
        spec = _shrunk("fig12-move-rounds")
        use_core(monkeypatch, "array")
        warm = _series_dict(spec, warm_start=True)
        use_core(monkeypatch, "sparse")
        cold = _series_dict(spec, warm_start=False)
        assert warm == cold


def _replay_events(n=14, seed=5):
    spec = resolve_sweep(replace(get_scenario("random-waypoint"), n=n), 4.0)
    _, events = scenario_trace(spec, np.random.default_rng(seed))
    return events


def _lane_states(replay):
    return [lane.state_dict() for lane in replay.lanes]


_CORES = ("array", "sparse")


class TestCrossCoreSnapshots:
    @pytest.mark.parametrize(
        "writer,reader",
        [(w, r) for w in _CORES for r in _CORES if w != r],
    )
    def test_digraph_snapshot_round_trips_between_cores(self, writer, reader):
        events = _replay_events()
        g = core_graph(writer)
        for ev in events[:10]:
            g.apply_event(ev)
        snap = g.snapshot()
        restored = restore_on(reader, snap)
        assert restored.core == reader
        assert restored.snapshot() == snap  # idempotent across the core swap
        assert_matches_oracle(restored)
        # both continue identically from the restore point
        cont = restore_on(writer, snap)
        for ev in events[10:]:
            restored.apply_event(ev)
            cont.apply_event(ev)
            assert_matches_oracle(restored)
        assert restored.snapshot() == cont.snapshot()

    @pytest.mark.parametrize("writer", sorted(_CORES))
    def test_replay_checkpoint_restores_under_any_core(self, writer, monkeypatch):
        events = _replay_events()
        use_core(monkeypatch, writer)
        replay = MultiStrategyReplay([make_strategy("Minim"), make_strategy("CP")])
        replay.run(events[:10])
        checkpoint = replay.snapshot()
        states = _lane_states(replay)
        for reader in sorted(_CORES):
            use_core(monkeypatch, reader)
            resumed = MultiStrategyReplay.restore(checkpoint)
            assert resumed.snapshot() == checkpoint
            assert _lane_states(resumed) == states
            resumed.run(events[10:])
            use_core(monkeypatch, writer)
            straight = MultiStrategyReplay.restore(checkpoint).run(events[10:])
            assert resumed.snapshot() == straight.snapshot()
            assert _lane_states(resumed) == _lane_states(straight)


class TestLaneContainers:
    @pytest.mark.parametrize("core", sorted(_CORES))
    def test_lanes_hold_array_assignments_under_both_cores(self, core, monkeypatch):
        use_core(monkeypatch, core)
        replay = MultiStrategyReplay([make_strategy("Minim")])
        replay.run(_replay_events(n=8)[:4])
        assert replay.graph.core == core
        assert isinstance(replay.lanes[0].assignment, ArrayCodeAssignment)

    def test_fork_preserves_the_container_kind(self, each_core):
        replay = MultiStrategyReplay([make_strategy("Minim")])
        replay.run(_replay_events(n=8)[:6])
        fork = replay.fork()
        assert isinstance(fork.lanes[0].assignment, ArrayCodeAssignment)
        assert fork.lanes[0].assignment.as_dict() == replay.lanes[0].assignment.as_dict()


def _rounds(events, size):
    return [events[i : i + size] for i in range(0, len(events), size)]


class TestRoundReplay:
    """``AdHocDigraph.apply_round`` on a scenario's replay stream.

    Round commit lives at the graph level only: lanes always react
    event by event.  Batching a replay's events into rounds must still
    land the graph byte-identically on the state the lane replay
    reaches, with one delta per event, equal to the sequential ones.
    """

    @pytest.mark.parametrize("core", sorted(_CORES))
    def test_rounds_land_on_the_sequential_graph_state(self, core, monkeypatch):
        events = _replay_events(n=16, seed=9)
        batched = core_graph(core)
        for round_events in _rounds(events, 5):
            batched.apply_round(round_events)
        use_core(monkeypatch, core)
        sequential = MultiStrategyReplay([make_strategy("Minim")]).run(events)
        assert batched.core == sequential.graph.core == core
        assert batched.snapshot() == sequential.graph.snapshot()
        assert_matches_oracle(batched)

    def test_result_lists_align_with_events(self):
        events = _replay_events(n=12, seed=3)
        batched = core_graph("sparse")
        sequential = core_graph("sparse")
        for round_events in _rounds(events, 4):
            deltas = batched.apply_round(round_events)
            assert len(deltas) == len(round_events)
            assert deltas == [sequential.apply_event(ev) for ev in round_events]
