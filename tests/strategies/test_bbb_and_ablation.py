"""Tests for the BBB global baseline and the greedy-sequential ablation."""

import numpy as np
import pytest

from repro.coloring.bbb import bbb_colors, bbb_coloring
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.ablation import GreedySequentialStrategy
from repro.strategies.bbb_global import BBBGlobalStrategy
from repro.strategies.minim import MinimStrategy, minimal_join_bound


class TestBBBGlobal:
    def test_assignment_always_matches_fresh_coloring(self):
        rng = np.random.default_rng(0)
        net = AdHocNetwork(BBBGlobalStrategy(), validate=True)
        for cfg in sample_configs(15, rng):
            net.join(cfg)
            assert net.assignment == bbb_coloring(net.graph)

    def test_recolors_on_leave_too(self):
        rng = np.random.default_rng(1)
        net = AdHocNetwork(BBBGlobalStrategy(), validate=True)
        for cfg in sample_configs(12, rng):
            net.join(cfg)
        v = net.node_ids()[0]
        net.leave(v)
        assert net.assignment == bbb_coloring(net.graph)
        assert v not in net.assignment

    def test_recode_counting_is_diff_based(self):
        rng = np.random.default_rng(2)
        net = AdHocNetwork(BBBGlobalStrategy())
        total = 0
        prev = net.assignment.copy()
        for cfg in sample_configs(10, rng):
            result = net.join(cfg)
            diff = prev.diff(net.assignment)
            assert result.recode_count == len(diff)
            total += result.recode_count
            prev = net.assignment.copy()
        assert total == net.metrics.total_recodings

    def test_changes_match_a_per_node_diff(self):
        # The lane diffs its color array in one compare; the changes must
        # equal the per-node walk, in ascending id order, with None for a
        # node that had no color yet.
        rng = np.random.default_rng(4)
        net = AdHocNetwork(BBBGlobalStrategy())
        for cfg in sample_configs(14, rng):
            before = net.assignment.copy()
            net.graph.add_node(cfg)
            result = BBBGlobalStrategy().on_join(net.graph, before, cfg.node_id)
            ids, colors = bbb_colors(net.graph)
            expected = {
                v: (before.get(v), c) for v, c in zip(ids, colors.tolist()) if before.get(v) != c
            }
            assert list(result.changes.items()) == list(expected.items())
            assert result.changes[cfg.node_id][0] is None
            net.graph.remove_node(cfg.node_id)
            net.join(cfg)

    def test_power_events_recolor(self):
        rng = np.random.default_rng(3)
        net = AdHocNetwork(BBBGlobalStrategy(), validate=True)
        configs = sample_configs(10, rng)
        for cfg in configs:
            net.join(cfg)
        v = configs[0].node_id
        net.set_range(v, configs[0].tx_range * 2)
        assert net.assignment == bbb_coloring(net.graph)
        net.set_range(v, configs[0].tx_range * 0.5)
        assert net.assignment == bbb_coloring(net.graph)


class TestGreedySequentialAblation:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_over_event_mix(self, seed):
        rng = np.random.default_rng(seed)
        net = AdHocNetwork(GreedySequentialStrategy(), validate=True)
        configs = sample_configs(15, rng)
        for cfg in configs:
            net.join(cfg)
        for cfg in configs[:5]:
            net.move(cfg.node_id, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        for cfg in configs[5:8]:
            net.set_range(cfg.node_id, cfg.tx_range * 1.5)
        assert net.is_valid()

    def test_join_is_still_minimal(self):
        # Keep-or-lowest in ascending order keeps the first holder of
        # each duplicated class, so it also achieves the join bound.
        rng = np.random.default_rng(9)
        configs = sample_configs(18, rng)
        net = AdHocNetwork(GreedySequentialStrategy(), validate=True)
        for cfg in configs[:-1]:
            net.join(cfg)
        last = configs[-1]
        net.graph.add_node(last)
        bound = minimal_join_bound(net.graph, net.assignment, last.node_id)
        net.graph.remove_node(last.node_id)
        assert net.join(last).recode_count == bound

    def test_greedy_palette_no_better_than_minim_on_average(self):
        # The ablation's point: matching reuses the palette at least as
        # well.  Compare summed max colors over several seeds.
        greedy_total = 0
        minim_total = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            configs = sample_configs(25, rng)
            g_net = AdHocNetwork(GreedySequentialStrategy())
            m_net = AdHocNetwork(MinimStrategy())
            for cfg in configs:
                g_net.join(cfg)
                m_net.join(cfg)
            greedy_total += g_net.max_color()
            minim_total += m_net.max_color()
        assert minim_total <= greedy_total
