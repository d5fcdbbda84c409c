"""The central safety property: every strategy keeps CA1/CA2 valid
through arbitrary event sequences (hypothesis-driven)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import AdHocNetwork
from repro.strategies import make_strategy
from repro.topology.node import NodeConfig

STRATEGIES = ["Minim", "CP", "BBB", "GreedySeq", "Minim/w1"]


def run_random_events(strategy_name: str, seed: int, n_events: int = 40) -> AdHocNetwork:
    rng = np.random.default_rng(seed)
    net = AdHocNetwork(make_strategy(strategy_name), validate=True)
    next_id = 0
    alive: list[int] = []
    for _ in range(n_events):
        op = int(rng.integers(0, 10))
        if op <= 3 or len(alive) < 2:  # join (40%)
            cfg = NodeConfig(
                next_id,
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 100)),
                tx_range=float(rng.uniform(10, 40)),
            )
            net.join(cfg)
            alive.append(next_id)
            next_id += 1
        elif op == 4:  # leave (10%)
            v = alive.pop(int(rng.integers(0, len(alive))))
            net.leave(v)
        elif op <= 7:  # move (30%)
            v = alive[int(rng.integers(0, len(alive)))]
            net.move(v, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        else:  # power change (20%)
            v = alive[int(rng.integers(0, len(alive)))]
            net.set_range(v, float(net.graph.range_of(v) * rng.uniform(0.5, 2.5)))
    return net


@pytest.mark.parametrize("strategy_name", STRATEGIES)
class TestSafetyUnderRandomEvents:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8)
    def test_always_valid(self, strategy_name, seed):
        # validate=True asserts CA1/CA2 after *every* event; reaching the
        # end means the whole trajectory was collision-free.
        net = run_random_events(strategy_name, seed)
        assert net.is_valid()
        assert set(net.assignment.nodes()) == set(net.node_ids())


class TestLongRunStability:
    @pytest.mark.parametrize("strategy_name", ["Minim", "CP"])
    def test_hundred_event_trajectory(self, strategy_name):
        net = run_random_events(strategy_name, seed=123, n_events=120)
        assert net.is_valid()
        # codes stay positive and dense-ish (no runaway palette)
        assert net.max_color() < 3 * max(len(net.graph), 1) + 10

    def test_metrics_recodings_match_event_records(self):
        net = run_random_events("Minim", seed=77, n_events=60)
        assert net.metrics.total_recodings == sum(
            r.recodings for r in net.metrics.records
        )
