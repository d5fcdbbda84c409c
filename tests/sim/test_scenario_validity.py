"""Every strategy keeps a valid colouring after every event of every scenario.

Strategy unit tests validate colourings on hand-built networks; this
file closes the gap for the registered workloads.  Each registered
scenario, shrunk to at most 12 nodes and its first sweep values, is
replayed event by event through one :class:`MultiStrategyReplay` with
the paper lineup (Minim, CP, BBB) and ``validate=True``, so every lane
checks its assignment against the graph after each event.  After each
event the graph itself is also checked against the brute-force
topology oracle (``tests/topology/oracles.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.sim.network import MultiStrategyReplay
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.scenarios import resolve_sweep, scenario_trace
from repro.strategies import DEFAULT_STRATEGIES, make_strategy
from tests.topology.oracles import assert_matches_oracle


def _shrunk(name):
    spec = get_scenario(name)
    return replace(
        spec,
        n=min(spec.n, 12),
        sweep_values=spec.sweep_values[: 1 if spec.measure == "delta_rounds" else 2],
    )


@pytest.mark.parametrize("name", sorted(available_scenarios()))
def test_every_strategy_stays_valid_after_every_event(name):
    spec = _shrunk(name)
    for k, value in enumerate(spec.sweep_values):
        _, events = scenario_trace(resolve_sweep(spec, value), np.random.default_rng(31 + k))
        replay = MultiStrategyReplay(
            [make_strategy(s) for s in DEFAULT_STRATEGIES], validate=True
        )
        assert [lane.name for lane in replay.lanes] == ["Minim", "CP", "BBB"]
        for event in events:
            replay.apply(event)  # each lane asserts a valid colouring
            assert_matches_oracle(replay.graph)
        assert all(len(lane.metrics.records) == len(events) for lane in replay.lanes)
