"""Inline free-space kernel vs propagation-model dispatch: identical sweeps and checkpoints.

Under the free-space disc the array core computes a slot's edges with
its own inlined distance pass; every other model answers through
``pairwise_masks`` (``cores/array.py`` ``ArrayCore.refresh``).  The
model path must agree bit for bit with the inline one, so the choice
must never show: every registered scenario must produce byte-identical
series with the free-space gate cleared from the first node (see
``tests/conftest.py::use_kernel``) — including through the
checkpoint-tree timeline — and snapshots and replay checkpoints
written under either kernel must restore under the other, match the
brute-force topology oracle, and continue identically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.sim.network import MultiStrategyReplay
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.scenarios import resolve_sweep, scenario_trace
from repro.sim.sweep import run_sweep
from repro.strategies import make_strategy
from repro.topology.digraph import AdHocDigraph
from tests.conftest import KERNELS, per_value_json, series_json, use_kernel
from tests.topology.oracles import assert_matches_oracle


def _shrunk(name):
    spec = get_scenario(name)
    return replace(
        spec,
        n=min(spec.n, 12),
        strategies=("Minim",),
        sweep_values=spec.sweep_values[: 1 if spec.measure == "delta_rounds" else 2],
    )


def _series_dict(spec, *, seed=23):
    return series_json(run_sweep(spec, runs=2, seed=seed))


class TestSweepsIdenticalAcrossKernels:
    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_registered_scenario_is_kernel_independent(self, name, monkeypatch):
        # the inline kernel and model dispatch give byte-identical output
        # for every registered scenario, through the checkpoint-tree timeline
        spec = _shrunk(name)
        use_kernel(monkeypatch, "inline")
        inline = _series_dict(spec)
        use_kernel(monkeypatch, "model")
        model = _series_dict(spec)
        assert model == inline

    def test_kernel_independent_through_cold_replay_too(self, monkeypatch):
        # a paired sweep walks one checkpoint tree per run; one sweep per
        # value replays each point cold
        spec = _shrunk("fig12-move-disp")
        use_kernel(monkeypatch, "inline")
        warm = _series_dict(spec)
        use_kernel(monkeypatch, "model")
        cold = per_value_json(spec, runs=2, seed=23)
        assert warm == cold


def _replay_events(n=14, seed=5):
    spec = resolve_sweep(replace(get_scenario("random-waypoint"), n=n), 4.0)
    _, events = scenario_trace(spec, np.random.default_rng(seed))
    return events


def _lane_states(replay):
    return [lane.state_dict() for lane in replay.lanes]


class TestSnapshotsAcrossKernels:
    @pytest.mark.parametrize(
        "writer,reader", [(w, r) for w in KERNELS for r in KERNELS if w != r]
    )
    def test_digraph_snapshot_round_trips_between_kernels(self, writer, reader, monkeypatch):
        events = _replay_events()
        use_kernel(monkeypatch, writer)
        g = AdHocDigraph()
        for ev in events[:10]:
            g.apply_event(ev)
        snap = g.snapshot()
        use_kernel(monkeypatch, reader)
        restored = AdHocDigraph.restore(snap)
        assert restored._fs == (reader == "inline")
        assert restored.snapshot() == snap  # idempotent across the switch
        assert_matches_oracle(restored)
        for ev in events[10:]:
            restored.apply_event(ev)
            assert_matches_oracle(restored)
        # the writer's kernel continues to the same state
        for ev in events[10:]:
            g.apply_event(ev)
        assert restored.snapshot() == g.snapshot()

    @pytest.mark.parametrize("writer", KERNELS)
    def test_replay_checkpoint_restores_under_any_kernel(self, writer, monkeypatch):
        events = _replay_events()
        use_kernel(monkeypatch, writer)
        replay = MultiStrategyReplay([make_strategy("Minim"), make_strategy("CP")])
        replay.run(events[:10])
        checkpoint = replay.snapshot()
        states = _lane_states(replay)
        for reader in KERNELS:
            use_kernel(monkeypatch, reader)
            resumed = MultiStrategyReplay.restore(checkpoint)
            assert resumed.snapshot() == checkpoint
            assert _lane_states(resumed) == states
            resumed.run(events[10:])
            use_kernel(monkeypatch, writer)
            straight = MultiStrategyReplay.restore(checkpoint).run(events[10:])
            assert resumed.snapshot() == straight.snapshot()
            assert _lane_states(resumed) == _lane_states(straight)
