"""Single-pass multi-strategy replay: equivalence pin and lane API.

The load-bearing guarantee of the unified sweep pipeline is that
sharing one topology across strategy lanes changes *nothing* about the
results: every lane must produce byte-identical metrics and assignments
to an independently rebuilt per-strategy network replaying the same
events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.assignment import ArrayCodeAssignment
from repro.errors import ConfigurationError
from repro.events.base import Event, JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.sim.network import AdHocNetwork, MultiStrategyReplay
from repro.sim.random_networks import sample_configs
from repro.strategies import make_strategy

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


STRATEGY_SETS = [
    ("Minim",),
    ("Minim", "CP", "BBB"),
    ("Minim", "CP", "GreedySeq"),
]


def random_trace(
    n: int,
    extra_events: int,
    rng: np.random.Generator,
) -> list[Event]:
    """n joins followed by random move/power(/leave+rejoin) events."""
    configs = sample_configs(n, rng)
    events: list[Event] = [JoinEvent(cfg) for cfg in configs]
    live = {cfg.node_id: cfg for cfg in configs}
    kinds = ["move", "power_up", "power_down", "churn"]
    for _ in range(extra_events):
        kind = kinds[int(rng.integers(len(kinds)))]
        node = int(rng.choice(sorted(live)))
        cfg = live[node]
        if kind == "move":
            x, y = rng.uniform(0.0, 100.0, size=2)
            events.append(MoveEvent(node, float(x), float(y)))
            live[node] = cfg.moved_to(float(x), float(y))
        elif kind == "power_up":
            events.append(PowerChangeEvent(node, cfg.tx_range * 1.5))
        elif kind == "power_down":
            events.append(PowerChangeEvent(node, max(cfg.tx_range * 0.7, 1.0)))
        else:  # leave, then rejoin elsewhere so the id stays live
            events.append(LeaveEvent(node))
            x, y = rng.uniform(0.0, 100.0, size=2)
            rejoined = cfg.moved_to(float(x), float(y))
            events.append(JoinEvent(rejoined))
            live[node] = rejoined
    return events


@per_kernel
class TestEquivalencePin:
    @pytest.mark.parametrize("strategies", STRATEGY_SETS)
    @pytest.mark.parametrize("trace_seed", [0, 1, 2])
    def test_shared_replay_matches_independent_networks(self, strategies, trace_seed):
        events = random_trace(18, 30, np.random.default_rng(trace_seed))

        replay = MultiStrategyReplay([make_strategy(s) for s in strategies])
        replay.run(events)

        for lane in replay.lanes:
            solo = AdHocNetwork(make_strategy(lane.name))
            for ev in events:
                solo.apply(ev)
            # Byte-identical per-event metrics, not just equal totals.
            assert lane.metrics.records == solo.metrics.records
            assert lane.assignment.as_dict() == solo.assignment.as_dict()
            assert lane.assignment.max_color() == solo.max_color()

    def test_shared_replay_valid_assignments(self):
        events = random_trace(15, 20, np.random.default_rng(7))
        replay = MultiStrategyReplay([make_strategy(s) for s in ("Minim", "CP")], validate=True)
        replay.run(events)
        from repro.coloring.verify import is_valid

        for lane in replay.lanes:
            assert is_valid(replay.graph, lane.assignment)


class TestReplayApi:
    def test_needs_at_least_one_strategy(self):
        with pytest.raises(ConfigurationError):
            MultiStrategyReplay([])

    def test_lane_lookup_by_name(self):
        replay = MultiStrategyReplay([make_strategy(s) for s in ("Minim", "CP")])
        assert replay.lane("CP").strategy.name == "CP"
        with pytest.raises(ConfigurationError, match="Minim"):
            replay.lane("nope")

    def test_apply_returns_one_result_per_lane(self):
        replay = MultiStrategyReplay([make_strategy(s) for s in ("Minim", "CP")])
        cfgs = sample_configs(3, np.random.default_rng(0))
        results = replay.apply(JoinEvent(cfgs[0]))
        assert len(results) == 2
        assert all(r.event_kind == "join" for r in results)

    def test_topology_applied_once(self):
        replay = MultiStrategyReplay([make_strategy(s) for s in ("Minim", "CP", "BBB")])
        for cfg in sample_configs(6, np.random.default_rng(1)):
            replay.apply(JoinEvent(cfg))
        assert len(replay.graph) == 6
        # All lanes share the graph object; per-lane state is separate.
        assert len({id(lane.assignment) for lane in replay.lanes}) == 3
        for lane in replay.lanes:
            assert len(lane.metrics.records) == 6


@per_kernel
class TestLaneContainers:
    def test_lanes_hold_array_assignments(self):
        replay = MultiStrategyReplay([make_strategy("Minim")])
        replay.run(random_trace(8, 4, np.random.default_rng(5)))
        assert isinstance(replay.lanes[0].assignment, ArrayCodeAssignment)

    def test_fork_preserves_the_container_kind(self):
        replay = MultiStrategyReplay([make_strategy("Minim")])
        replay.run(random_trace(8, 6, np.random.default_rng(5)))
        fork = replay.fork()
        assert isinstance(fork.lanes[0].assignment, ArrayCodeAssignment)
        assert fork.lanes[0].assignment.as_dict() == replay.lanes[0].assignment.as_dict()
