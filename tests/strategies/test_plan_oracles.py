"""The array Minim plan against its per-member oracle.

Every join and move of the paper's figure sweeps, at small ``n`` and on
both conflict cores, must produce exactly the oracle's plan: the same
new colors, the same changes in the same order, the same palette bound
and message count.  A second group pins the float64 exactness guard of
the lexicographic weights.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.coloring.assignment import ArrayCodeAssignment, CodeAssignment
from repro.errors import MatchingError
from repro.sim.network import MultiStrategyReplay
from repro.sim.registry import get_scenario
from repro.sim.scenarios import resolve_sweep, scenario_phases
from repro.strategies.minim import MinimStrategy, plan_local_matching_recode
from repro.strategies.minim.join import solve_v1_assignment
from repro.topology.static import StaticDigraph
from tests.conftest import use_core
from tests.strategies.oracles import plan_oracle, solve_v1_oracle

FIGURES = ["fig10-join", "fig10-range", "fig11-power", "fig12-move-disp", "fig12-move-rounds"]


class OracleCheckedMinim(MinimStrategy):
    """Minim that checks each join and move plan against the oracle first."""

    def __init__(self, **weights) -> None:
        super().__init__(**weights)
        self.weights = weights
        self.checked = 0

    def _check(self, graph, assignment, node_id) -> None:
        plan = plan_local_matching_recode(graph, assignment, node_id, **self.weights)
        oracle = plan_oracle(graph, assignment, node_id, **self.weights)
        assert plan == oracle
        assert list(plan.changes.items()) == list(oracle.changes.items())
        self.checked += 1

    def on_join(self, graph, assignment, node_id):
        self._check(graph, assignment, node_id)
        return super().on_join(graph, assignment, node_id)

    def on_move(self, graph, assignment, node_id):
        self._check(graph, assignment, node_id)
        return super().on_move(graph, assignment, node_id)


def replay_checked(name: str, core: str, monkeypatch, *, n: int = 18, **weights) -> int:
    """Replay every sweep value of figure ``name``; the number of plans checked."""
    use_core(monkeypatch, core)
    spec = replace(get_scenario(name), n=min(get_scenario(name).n, n))
    checked = 0
    for k, value in enumerate(spec.sweep_values):
        phases = scenario_phases(resolve_sweep(spec, value), np.random.default_rng(100 + k))
        strategy = OracleCheckedMinim(**weights)
        replay = MultiStrategyReplay([strategy], validate=True)
        replay.run(phases.events)
        assert replay.graph.core == core
        checked += strategy.checked
    return checked


@pytest.mark.parametrize("core", ["array", "sparse"])
@pytest.mark.parametrize("name", FIGURES)
def test_every_figure_plan_matches_oracle(name, core, monkeypatch):
    assert replay_checked(name, core, monkeypatch) > 0


@pytest.mark.parametrize("core", ["array", "sparse"])
def test_weight_ablation_matches_oracle(core, monkeypatch):
    assert replay_checked("fig12-move-disp", core, monkeypatch, old_color_weight=1) > 0


def test_dict_assignment_and_static_graph_match_oracle():
    # The generic path: an explicit-edge digraph and a dict assignment.
    g = StaticDigraph(
        nodes=range(8),
        edges=[(1, 0), (2, 0), (0, 3), (3, 0), (4, 1), (5, 2), (6, 3), (7, 6), (2, 7)],
    )
    a = CodeAssignment({1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 1, 7: 4})
    assert plan_local_matching_recode(g, a, 0) == plan_oracle(g, a, 0)
    arr = ArrayCodeAssignment(a.as_dict())
    assert plan_local_matching_recode(g, arr, 0) == plan_oracle(g, a, 0)


def test_solve_v1_assignment_matches_oracle_on_payloads():
    v1 = [3, 5, 8, 9]
    old = {3: 2, 5: 2, 8: 4, 9: None}
    constraints = {3: {1}, 5: {1, 3}, 8: set(), 9: {2, 6}}
    assert solve_v1_assignment(v1, old, constraints) == solve_v1_oracle(v1, old, constraints)


class TestWeightExactness:
    def test_oversized_v1_fails_loudly(self):
        # 1,300 members whose colors span a 1,300-color palette: the
        # largest lexicographic weight is past 2**53 / 4.
        v1 = list(range(1300))
        old = {u: u + 1 for u in v1}
        with pytest.raises(MatchingError, match=r"\|V1\| = 1300 and a palette of 1300"):
            solve_v1_assignment(v1, old, {u: set() for u in v1})

    def test_paper_sized_v1_is_exact(self):
        # A near-complete 100-node network: |V1| = palette = 100.
        v1 = list(range(100))
        new, palette = solve_v1_assignment(v1, {u: u + 1 for u in v1}, {u: set() for u in v1})
        assert palette == 100 and new == {u: u + 1 for u in v1}
