"""The array Minim and CP plans against their per-member oracles.

Every join and move of the paper's figure sweeps, at small ``n``, must
produce exactly the oracle's plan: the same new colors, the same
changes in the same order, the same palette bound and message count.
A second group pins the float64 exactness guard of the lexicographic
weights.  The CP group replays the figures and two
churn scenarios through an oracle-checked CP lane (every join, move and
power increase, under every ordering and takenness option), checks
random networks with partial colorings on the digraph and on an
explicit-edge graph, and pins the mover and CA2 power-increase cases.
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
from repro.strategies.cp import (
    CPStrategy,
    plan_cp_join,
    plan_cp_move,
    plan_cp_power_increase,
    reselect_colors,
)
from repro.strategies.cp.join import duplicated_members
from repro.strategies.minim import MinimStrategy, plan_local_matching_recode
from repro.strategies.minim.join import solve_v1_assignment
from repro.topology.builder import build_digraph
from repro.topology.node import NodeConfig
from repro.topology.static import StaticDigraph
from tests.conftest import make_random_graph
from tests.strategies.oracles import (
    cp_join_oracle,
    cp_move_oracle,
    cp_power_increase_oracle,
    duplicated_members_oracle,
    plan_oracle,
    reselect_colors_oracle,
    solve_v1_oracle,
)

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


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


def replay_checked(name: str, *, n: int = 18, checked_cls=OracleCheckedMinim, **options) -> int:
    """Replay every sweep value of scenario ``name``; the number of plans checked."""
    spec = replace(get_scenario(name), n=min(get_scenario(name).n, n))
    checked = 0
    for k, value in enumerate(spec.sweep_values):
        phases = scenario_phases(resolve_sweep(spec, value), np.random.default_rng(100 + k))
        strategy = checked_cls(**options)
        replay = MultiStrategyReplay([strategy], validate=True)
        replay.run(phases.events)
        checked += strategy.checked
    return checked


@per_kernel
@pytest.mark.parametrize("name", FIGURES)
def test_every_figure_plan_matches_oracle(name):
    assert replay_checked(name) > 0


@per_kernel
def test_weight_ablation_matches_oracle():
    assert replay_checked("fig12-move-disp", old_color_weight=1) > 0


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


# ----------------------------------------------------------------------
# CP
# ----------------------------------------------------------------------
CP_OPTIONS = [
    {},
    {"highest_first": False},
    {"vicinity_colors": True},
    {"highest_first": False, "vicinity_colors": True},
]


def assert_same_cp_plan(plan, oracle) -> None:
    """Equal plans, with new colors and changes in the same order."""
    assert plan == oracle
    assert list(plan.new_colors.items()) == list(oracle.new_colors.items())
    assert list(plan.changes.items()) == list(oracle.changes.items())


class OracleCheckedCP(CPStrategy):
    """CP that checks each join, move and power-increase plan against the oracle."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.options = options
        self.checked = 0

    def on_join(self, graph, assignment, node_id):
        assert_same_cp_plan(
            plan_cp_join(graph, assignment, node_id, **self.options),
            cp_join_oracle(graph, assignment, node_id, **self.options),
        )
        self.checked += 1
        return super().on_join(graph, assignment, node_id)

    def on_move(self, graph, assignment, node_id):
        assert_same_cp_plan(
            plan_cp_move(graph, assignment, node_id, **self.options),
            cp_move_oracle(graph, assignment, node_id, **self.options),
        )
        self.checked += 1
        return super().on_move(graph, assignment, node_id)

    def on_power_change(self, graph, assignment, node_id, *, increased, old_conflict_neighbors):
        if increased:
            args = (graph, assignment, node_id, old_conflict_neighbors)
            assert_same_cp_plan(
                plan_cp_power_increase(*args, **self.options),
                cp_power_increase_oracle(*args, **self.options),
            )
            self.checked += 1
        return super().on_power_change(
            graph,
            assignment,
            node_id,
            increased=increased,
            old_conflict_neighbors=old_conflict_neighbors,
        )


CP_SCENARIOS = FIGURES + ["hotspot-churn", "random-waypoint"]


@per_kernel
@pytest.mark.parametrize("name", CP_SCENARIOS)
def test_every_cp_plan_matches_oracle(name):
    assert replay_checked(name, checked_cls=OracleCheckedCP) > 0


@per_kernel
@pytest.mark.parametrize("options", CP_OPTIONS[1:], ids=["lowest", "vicinity", "lowest-vicinity"])
@pytest.mark.parametrize("name", ["fig11-power", "fig12-move-disp", "hotspot-churn"])
def test_cp_options_match_oracle(name, options):
    assert replay_checked(name, checked_cls=OracleCheckedCP, **options) > 0


def random_partial_coloring(graph, seed: int) -> dict[int, int]:
    """Colors 1-4 (duplicates everywhere) with about a fifth left uncolored."""
    rng = np.random.default_rng(seed)
    ids = graph.node_ids()
    colors = rng.integers(1, 5, len(ids)).tolist()
    keep = (rng.random(len(ids)) >= 0.2).tolist()
    return {u: c for u, c, k in zip(ids, colors, keep) if k}


def check_random_plans(graph, codes: dict[int, int], make_assignment, seed: int) -> int:
    """Every node's join, move and power-increase plan against the oracles."""
    rng = np.random.default_rng(seed)
    checked = 0
    for u in graph.node_ids():
        left = make_assignment({v: c for v, c in codes.items() if v != u})
        full = make_assignment(codes)
        conflicts = sorted(graph.conflict_neighbor_ids(u))
        old = {v for v in conflicts if rng.random() < 0.5}  # the rest were gained
        for options in CP_OPTIONS:
            assert_same_cp_plan(
                plan_cp_join(graph, left, u, **options),
                cp_join_oracle(graph, left, u, **options),
            )
            if u in codes:
                assert_same_cp_plan(
                    plan_cp_move(graph, full, u, **options),
                    cp_move_oracle(graph, full, u, **options),
                )
                assert_same_cp_plan(
                    plan_cp_power_increase(graph, full, u, old, **options),
                    cp_power_increase_oracle(graph, full, u, old, **options),
                )
            checked += 1
    return checked


@per_kernel
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cp_random_networks_match_oracle(seed):
    graph = make_random_graph(seed, n=24, min_range=25.5, max_range=40.5)
    codes = random_partial_coloring(graph, seed)
    assert check_random_plans(graph, codes, ArrayCodeAssignment, seed) > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_cp_static_digraph_matches_oracle(seed):
    built = make_random_graph(seed, n=24, min_range=25.5, max_range=40.5)
    graph = StaticDigraph(nodes=built.node_ids(), edges=built.edges())
    codes = random_partial_coloring(graph, seed)
    assert check_random_plans(graph, codes, CodeAssignment, seed) > 0


@per_kernel
def test_duplicated_members_and_reselect_match_oracle():
    graph = make_random_graph(4, n=30, min_range=25.5, max_range=40.5)
    codes = random_partial_coloring(graph, 4)
    for make in (CodeAssignment, ArrayCodeAssignment):
        a = make(codes)
        for u in graph.node_ids():
            members = frozenset(graph.undirected_neighbors(u))
            assert duplicated_members(a, members) == duplicated_members_oracle(a, members)
        reselect = set(graph.node_ids()[::3])
        for options in CP_OPTIONS:
            got = reselect_colors(graph, a, reselect, **options)
            want = reselect_colors_oracle(graph, a, reselect, **options)
            assert list(got.items()) == list(want.items())


def test_mover_landing_on_its_old_color_still_announces():
    # Mover 0 (color 2) hears 1 (color 1) and reaches 3 (uncolored): no
    # class is duplicated, 0 reselects alone and takes color 2 again.
    g = StaticDigraph(nodes=[0, 1, 2, 3], edges=[(1, 0), (2, 1), (0, 3)])
    a = CodeAssignment({0: 2, 1: 1, 2: 3})
    plan = plan_cp_move(g, a, 0)
    assert plan.reselect == {0} and plan.new_colors == {0: 2}
    assert plan.changes == {}
    # 2 * deg(0) for the exchange, plus deg(0) for the announce.
    assert plan.messages == 2 * 2 + 2
    assert_same_cp_plan(plan, cp_move_oracle(g, a, 0))
    arr = ArrayCodeAssignment(a.as_dict())
    assert_same_cp_plan(plan_cp_move(g, arr, 0), cp_move_oracle(g, a, 0))


@per_kernel
def test_power_increase_with_gained_ca2_constraint():
    # 1 raises its range to reach receiver 3, which 2 also reaches: 1 and
    # 2 gain a CA2 constraint (no edge between them) and share color 1.
    graph = build_digraph(
        [
            NodeConfig(1, 0.0, 0.0, tx_range=5.0),
            NodeConfig(2, 20.0, 0.0, tx_range=12.0),
            NodeConfig(3, 10.0, 0.0, tx_range=1.0),
        ]
    )
    old = graph.conflict_neighbor_ids(1)
    graph.set_range(1, 12.0)
    assert not graph.has_edge(1, 2) and not graph.has_edge(2, 1)
    assert graph.conflict_neighbor_ids(1) - old == {2, 3}
    a = ArrayCodeAssignment({1: 1, 2: 1, 3: 2})
    for options in CP_OPTIONS:
        plan = plan_cp_power_increase(graph, a, 1, old, **options)
        assert plan.reselect == {1, 2}
        assert_same_cp_plan(plan, cp_power_increase_oracle(graph, a, 1, old, **options))
    plan = plan_cp_power_increase(graph, a, 1, old)
    # Highest first: 2 keeps color 1, then 1 avoids 1 (at 2) and 2 (at 3).
    assert plan.changes == {1: (1, 3)}
