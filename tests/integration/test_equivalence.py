"""Cross-cutting equivalence properties.

* RecodeOnMove vs leave-then-join (Theorem 4.4.1): identical topology,
  and the move never recodes more than the leave+join pair.
* Oracle vs distributed executions on full join sequences.
* Minim/CP/BBB all converge to valid assignments on the same workload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import run_distributed_join
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.minim import MinimStrategy
from repro.topology.node import NodeConfig


def build(seed: int, n: int) -> AdHocNetwork:
    rng = np.random.default_rng(seed)
    net = AdHocNetwork(MinimStrategy(), validate=True)
    for cfg in sample_configs(n, rng):
        net.join(cfg)
    return net


class TestMoveVsLeaveJoin:
    @given(st.integers(0, 3_000))
    @settings(max_examples=15)
    def test_same_topology_and_no_more_recodes(self, seed):
        rng = np.random.default_rng(seed)
        n = 14
        mover_net = build(seed, n)
        lj_net = build(seed, n)
        v = int(rng.choice(mover_net.node_ids()))
        x, y = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
        tx_range = mover_net.graph.range_of(v)

        move_result = mover_net.move(v, x, y)
        lj_net.leave(v)
        lj_result = lj_net.join(NodeConfig(v, x, y, tx_range=tx_range))

        ids_a, adj_a = mover_net.graph.adjacency()
        ids_b, adj_b = lj_net.graph.adjacency()
        assert ids_a == ids_b and (adj_a == adj_b).all()
        # The join must recode n (fresh assignment); the move keeps n's
        # color when possible, so it can only do better.
        assert move_result.recode_count <= lj_result.recode_count
        assert mover_net.is_valid() and lj_net.is_valid()

    def test_move_to_same_place_is_free_but_leavejoin_is_not(self):
        net_a = build(5, 10)
        net_b = build(5, 10)
        v = net_a.node_ids()[0]
        x, y = net_a.graph.position_of(v)
        r = net_a.graph.range_of(v)
        assert net_a.move(v, x, y).recode_count == 0
        net_b.leave(v)
        assert net_b.join(NodeConfig(v, x, y, tx_range=r)).recode_count >= 1


class TestOracleVsDistributedSequences:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_join_sequence_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        configs = sample_configs(15, rng)
        oracle_net = AdHocNetwork(MinimStrategy(), validate=True)
        dist_net = AdHocNetwork(MinimStrategy(), validate=True)
        for cfg in configs:
            oracle_net.join(cfg)
            # Distributed: insert, run protocol, apply changes manually.
            dist_net.graph.add_node(cfg)
            stats = run_distributed_join(dist_net.graph, dist_net.assignment, cfg.node_id)
            for node, (_old, new) in stats.changes.items():
                dist_net.assignment.assign(node, new)
        assert oracle_net.assignment == dist_net.assignment


class TestCrossStrategyConsistency:
    def test_all_strategies_color_the_same_topology(self):
        rng = np.random.default_rng(9)
        configs = sample_configs(20, rng)
        finals = {}
        for name in ("Minim", "CP", "BBB"):
            from repro.strategies import make_strategy

            net = AdHocNetwork(make_strategy(name), validate=True)
            for cfg in configs:
                net.join(cfg)
            finals[name] = net
        topologies = {
            name: tuple(sorted(net.graph.edges())) for name, net in finals.items()
        }
        assert len(set(topologies.values())) == 1  # same topology evolution
        for net in finals.values():
            assert net.is_valid()

    def test_minim_palette_not_larger_than_cp(self):
        # Aggregate over several seeds (per-seed this can flip by a color
        # or two; summed it should hold clearly).
        minim_total = cp_total = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            configs = sample_configs(30, rng)
            from repro.strategies import make_strategy

            nets = {}
            for name in ("Minim", "CP"):
                net = AdHocNetwork(make_strategy(name))
                for cfg in configs:
                    net.join(cfg)
                nets[name] = net
            minim_total += nets["Minim"].max_color()
            cp_total += nets["CP"].max_color()
        assert minim_total <= cp_total
