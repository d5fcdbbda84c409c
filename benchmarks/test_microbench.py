"""Microbenchmarks of the hot kernels.

These pin the performance-critical building blocks (conflict-matrix
construction, matching, DSATUR, per-join recoding, spatial queries,
despreading) so regressions are visible in ``--benchmark-compare`` runs.
Unlike the figure benches these use pytest-benchmark's normal
multi-round timing.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cdma.spreading import despread, spread
from repro.cdma.walsh import walsh_codes
from repro.coloring.bbb import bbb_colors
from repro.coloring.dsatur import dsatur_color_matrix
from repro.coloring.greedy import greedy_color_matrix
from repro.coloring.smallest_last import smallest_last_order
from repro.matching.hungarian import solve_max_weight_dense
from repro.sim.network import AdHocNetwork, MultiStrategyReplay
from repro.sim.random_networks import sample_configs
from repro.sim.registry import get_scenario
from repro.sim.scenarios import resolve_sweep, scenario_phases
from repro.strategies.cp import CPStrategy, plan_cp_join, plan_cp_move
from repro.strategies.minim import MinimStrategy, plan_local_matching_recode
from repro.topology.builder import build_digraph
from repro.topology.conflicts import conflict_matrix
from repro.topology.node import NodeConfig


@pytest.fixture(scope="module")
def big_adjacency():
    rng = np.random.default_rng(0)
    adj = rng.random((250, 250)) < 0.15
    np.fill_diagonal(adj, False)
    return adj


def test_conflict_matrix_250(benchmark, big_adjacency):
    out = benchmark(conflict_matrix, big_adjacency)
    assert out.shape == (250, 250)


@pytest.fixture(scope="module")
def conflicts_150():
    rng = np.random.default_rng(1)
    adj = rng.random((150, 150)) < 0.1
    np.fill_diagonal(adj, False)
    return conflict_matrix(adj)


def test_dsatur_150(benchmark, conflicts_150):
    colors = benchmark(dsatur_color_matrix, conflicts_150)
    assert colors.min() >= 1


def test_smallest_last_greedy_150(benchmark, conflicts_150):
    """BBB's second pass: the smallest-last order, then first-fit in that order."""

    def second_pass():
        return greedy_color_matrix(conflicts_150, smallest_last_order(conflicts_150))

    colors = benchmark(second_pass)
    assert colors.min() >= 1


def test_bbb_recolor_100(benchmark):
    """One whole-network BBB recolor of a 100-node network (the BBB lane's per-event cost)."""
    graph = build_digraph(sample_configs(100, np.random.default_rng(7)))
    ids, colors = benchmark(bbb_colors, graph)
    assert len(ids) == 100 and colors.min() >= 1


def test_hungarian_60x80(benchmark):
    rng = np.random.default_rng(2)
    w = np.where(rng.random((60, 80)) < 0.4, rng.integers(1, 10, (60, 80)), 0).astype(float)
    pairs = benchmark(solve_max_weight_dense, w)
    assert pairs


def test_minim_plan_dense_v1(benchmark):
    """One RecodeOnJoin into a near-complete 100-node network (fig10's high-range shape).

    The conflict graph is near-complete, so the palette is about N and V1
    holds close to half the network: the plan's worst per-event case, and
    the end-to-end view of the matcher timed just above.
    """
    rng = np.random.default_rng(8)
    configs = sample_configs(100, rng, min_range=62.5, max_range=67.5)
    net = AdHocNetwork(MinimStrategy())
    for cfg in configs[:-1]:
        net.join(cfg)
    last = configs[-1]
    net.graph.add_node(last)

    def recode():
        return plan_local_matching_recode(net.graph, net.assignment, last.node_id)

    plan = benchmark(recode)
    assert len(plan.v1) > 30 and plan.max_color_seen > 90


def test_join_recode_throughput(benchmark):
    """One RecodeOnJoin in a 100-node network (the per-event hot path)."""
    rng = np.random.default_rng(3)
    configs = sample_configs(100, rng)
    net = AdHocNetwork(MinimStrategy())
    for cfg in configs[:-1]:
        net.join(cfg)
    last = configs[-1]
    net.graph.add_node(last)

    def recode():
        return plan_local_matching_recode(net.graph, net.assignment, last.node_id)

    plan = benchmark(recode)
    assert last.node_id in plan.changes


def test_cp_join_move_800(benchmark):
    """One CP join and one CP move plan in an 800-node hotspot-churn snapshot.

    The snapshot is the scenario's join phase under CP (the ``churn-cp``
    perfbench shape); the joiner lands in the hotspot, where the member
    sets and conflict rows are largest.
    """
    spec = resolve_sweep(replace(get_scenario("hotspot-churn"), n=800), 0.4)
    phases = scenario_phases(spec, np.random.default_rng(9))
    replay = MultiStrategyReplay([CPStrategy()]).run(phases.baseline)
    graph, assignment = replay.graph, replay.lanes[0].assignment
    cx, cy = np.mean([graph.position_of(v) for v in graph.node_ids()], axis=0)
    joiner = max(graph.node_ids()) + 1
    graph.add_node(NodeConfig(joiner, float(cx), float(cy), tx_range=25.0))
    mover = graph.node_ids()[0]
    graph.move_node(mover, float(cx) + 3.0, float(cy))

    def plans():
        return plan_cp_join(graph, assignment, joiner), plan_cp_move(graph, assignment, mover)

    join, move = benchmark(plans)
    assert joiner in join.changes and mover in move.reselect
    assert len(graph.undirected_neighbors(joiner)) > 20


def test_array_core_churn_800(benchmark):
    """A join, a move and a removal at the hotspot of an 800-node snapshot.

    The ``hotspot-churn`` join phase under CP, as in
    :func:`test_cp_join_move_800`; each round admits a node at the
    hotspot centre, moves it, and removes it again, so the array core's
    counter upkeep runs on its largest cliques and the graph returns to
    the same edges every round.
    """
    spec = resolve_sweep(replace(get_scenario("hotspot-churn"), n=800), 0.4)
    phases = scenario_phases(spec, np.random.default_rng(9))
    graph = MultiStrategyReplay([CPStrategy()]).run(phases.baseline).graph
    cx, cy = np.mean([graph.position_of(v) for v in graph.node_ids()], axis=0)
    joiner = max(graph.node_ids()) + 1
    before = graph.adjacency()

    def churn():
        graph.add_node(NodeConfig(joiner, float(cx), float(cy), tx_range=25.0))
        graph.move_node(joiner, float(cx) + 3.0, float(cy))
        in_degree = len(graph.in_neighbors(joiner))
        graph.remove_node(joiner)
        return in_degree

    assert benchmark(churn) > 100
    after = graph.adjacency()
    assert after[0] == before[0] and (after[1] == before[1]).all()


def test_brute_force_disc_query(benchmark):
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1000, (5000, 2))

    def brute():
        diff = pts - np.array([500.0, 500.0])
        return np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= 25.0**2)

    assert len(benchmark(brute)) >= 0


def test_despread_throughput(benchmark):
    codes = walsh_codes(64)
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 512)
    chips = spread(bits, codes[7])

    def roundtrip():
        return despread(chips, codes[7])

    corr = benchmark(roundtrip)
    assert np.allclose(np.abs(corr), 1.0)


def test_bulk_digraph_build_200(benchmark):
    rng = np.random.default_rng(6)
    configs = sample_configs(200, rng)
    g = benchmark(build_digraph, configs)
    assert len(g) == 200
