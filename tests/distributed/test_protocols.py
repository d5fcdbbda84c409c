"""Tests for the message-driven protocol executions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distributed import (
    Message,
    MessageBus,
    MessageKind,
    run_distributed_cp_join,
    run_distributed_join,
)
from repro.errors import ProtocolError
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.cp import plan_cp_join
from repro.strategies.minim import MinimStrategy, plan_local_matching_recode
from tests.strategies.oracles import plan_oracle


class TestMessageBus:
    def test_fifo_delivery(self):
        bus = MessageBus()
        seen = []
        bus.register(1, lambda m: seen.append(m.payload["i"]) or [])
        for i in range(5):
            bus.send(Message(0, 1, MessageKind.COMMIT, {"i": i}))
        bus.run_to_quiescence()
        assert seen == [0, 1, 2, 3, 4]

    def test_reply_chains(self):
        bus = MessageBus()
        log = []
        bus.register(
            1,
            lambda m: [Message(1, 2, MessageKind.COLOR_ACK, {})]
            if m.kind is MessageKind.SET_COLOR
            else [],
        )
        bus.register(2, lambda m: log.append(m.kind) or [])
        bus.send(Message(0, 1, MessageKind.SET_COLOR, {"color": 3}))
        delivered = bus.run_to_quiescence()
        assert delivered == 2
        assert log == [MessageKind.COLOR_ACK]
        assert bus.sent_total == 2
        assert bus.sent_by_kind[MessageKind.SET_COLOR] == 1

    def test_unregistered_destination_raises(self):
        bus = MessageBus()
        bus.send(Message(0, 9, MessageKind.COMMIT, {}))
        with pytest.raises(ProtocolError, match="unregistered"):
            bus.run_to_quiescence()

    def test_livelock_guard(self):
        bus = MessageBus()
        bus.register(1, lambda m: [Message(1, 1, MessageKind.COMMIT, {})])
        bus.send(Message(1, 1, MessageKind.COMMIT, {}))
        with pytest.raises(ProtocolError, match="quiesce"):
            bus.run_to_quiescence(max_deliveries=100)

    def test_double_register_rejected(self):
        bus = MessageBus()
        bus.register(1, lambda m: [])
        with pytest.raises(ProtocolError):
            bus.register(1, lambda m: [])

    def test_unregister(self):
        bus = MessageBus()
        bus.register(1, lambda m: [])
        bus.unregister(1)
        bus.send(Message(0, 1, MessageKind.COMMIT, {}))
        with pytest.raises(ProtocolError):
            bus.run_to_quiescence()


def network_with_pending_join(seed: int, n: int = 18):
    """A Minim network plus one inserted-but-uncolored joiner."""
    rng = np.random.default_rng(seed)
    configs = sample_configs(n, rng)
    net = AdHocNetwork(MinimStrategy(), validate=True)
    for cfg in configs[:-1]:
        net.join(cfg)
    net.graph.add_node(configs[-1])
    return net, configs[-1].node_id


class TestDistributedJoinEquivalence:
    @given(st.integers(0, 2_000))
    def test_changes_match_oracle(self, seed):
        # The message-passing join, the array plan and the per-member
        # reference plan all agree.
        net, joiner = network_with_pending_join(seed)
        plan = plan_local_matching_recode(net.graph, net.assignment, joiner)
        stats = run_distributed_join(net.graph, net.assignment, joiner)
        assert stats.changes == plan.changes
        assert stats.changes == plan_oracle(net.graph, net.assignment, joiner).changes

    def test_rounds_and_messages(self):
        net, joiner = network_with_pending_join(3)
        stats = run_distributed_join(net.graph, net.assignment, joiner)
        assert stats.rounds in (1, 3)
        in_deg = net.graph.in_degree(joiner)
        out_only = len(
            set(net.graph.out_neighbors(joiner)) - set(net.graph.in_neighbors(joiner))
        )
        floor = 2 * (in_deg + out_only)
        assert stats.messages >= floor

    def test_assignment_not_mutated(self):
        net, joiner = network_with_pending_join(4)
        before = net.assignment.copy()
        run_distributed_join(net.graph, net.assignment, joiner)
        assert net.assignment == before


class TestDistributedCPEquivalence:
    @given(st.integers(0, 2_000))
    def test_changes_match_oracle(self, seed):
        net, joiner = network_with_pending_join(seed)
        oracle = plan_cp_join(net.graph, net.assignment, joiner)
        stats = run_distributed_cp_join(net.graph, net.assignment, joiner)
        assert stats.changes == oracle.changes

    @given(st.integers(0, 500))
    def test_vicinity_variant_matches_too(self, seed):
        net, joiner = network_with_pending_join(seed, n=12)
        oracle = plan_cp_join(net.graph, net.assignment, joiner, vicinity_colors=True)
        stats = run_distributed_cp_join(
            net.graph, net.assignment, joiner, vicinity_colors=True
        )
        assert stats.changes == oracle.changes

    def test_rounds_bounded_by_reselect_size(self):
        net, joiner = network_with_pending_join(5)
        oracle = plan_cp_join(net.graph, net.assignment, joiner)
        stats = run_distributed_cp_join(net.graph, net.assignment, joiner)
        assert 1 <= stats.rounds <= max(len(oracle.reselect), 1)
