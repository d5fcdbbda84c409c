"""Tests for event ADTs, logs and parallel-join batching."""

import numpy as np
import pytest

from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.events.sequence import EventLog, plan_parallel_join_batches
from repro.sim.network import AdHocNetwork
from repro.strategies.minim import MinimStrategy
from repro.topology.builder import build_digraph
from repro.topology.node import NodeConfig

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


class TestEventTypes:
    def test_kinds(self):
        cfg = NodeConfig(1, 0.0, 0.0, tx_range=1.0)
        assert JoinEvent(cfg).kind == "join"
        assert JoinEvent(cfg).node_id == 1
        assert LeaveEvent(1).kind == "leave"
        assert MoveEvent(1, 2.0, 3.0).kind == "move"
        assert PowerChangeEvent(1, 5.0).kind == "power"

    def test_frozen(self):
        ev = LeaveEvent(1)
        with pytest.raises(AttributeError):
            ev.node_id = 2  # type: ignore[misc]


class TestEventLog:
    def test_counts(self):
        log = EventLog([LeaveEvent(1), LeaveEvent(2), MoveEvent(1, 0.0, 0.0)])
        log.append(PowerChangeEvent(1, 2.0))
        assert len(log) == 4
        assert log.counts_by_kind() == {"leave": 2, "move": 1, "power": 1}
        assert log[0] == LeaveEvent(1)
        assert list(log)[-1] == PowerChangeEvent(1, 2.0)


def chain_graph():
    """A long line so hop distances are meaningful."""
    return build_digraph(
        NodeConfig(i, 10.0 * i, 0.0, tx_range=12.0) for i in range(20)
    )


class TestParallelJoinBatches:
    def test_far_apart_joins_share_batch(self):
        g = chain_graph()
        joins = [
            JoinEvent(NodeConfig(100, 5.0, 5.0, tx_range=12.0)),
            JoinEvent(NodeConfig(101, 185.0, 5.0, tx_range=12.0)),
        ]
        batches = plan_parallel_join_batches(g, joins)
        assert len(batches) == 1
        assert {e.node_id for e in batches[0]} == {100, 101}

    def test_close_joins_split(self):
        g = chain_graph()
        joins = [
            JoinEvent(NodeConfig(100, 5.0, 5.0, tx_range=12.0)),
            JoinEvent(NodeConfig(101, 15.0, 5.0, tx_range=12.0)),
        ]
        batches = plan_parallel_join_batches(g, joins)
        assert len(batches) == 2

    def test_disconnected_joiners_can_share(self):
        g = chain_graph()
        joins = [
            JoinEvent(NodeConfig(100, 5.0, 5.0, tx_range=12.0)),
            JoinEvent(NodeConfig(101, 900.0, 900.0, tx_range=12.0)),
        ]
        assert len(plan_parallel_join_batches(g, joins)) == 1

    def test_invalid_separation(self):
        with pytest.raises(ValueError):
            plan_parallel_join_batches(chain_graph(), [], min_separation=0)

    def test_input_graph_not_mutated(self):
        g = chain_graph()
        before = len(g)
        plan_parallel_join_batches(
            g, [JoinEvent(NodeConfig(100, 5.0, 5.0, tx_range=12.0))]
        )
        assert len(g) == before

    def test_batched_joins_commute(self):
        """Theorem 4.1.10: joins >= 5 hops apart give order-independent
        results."""
        g = chain_graph()
        joins = [
            JoinEvent(NodeConfig(100, 5.0, 5.0, tx_range=12.0)),
            JoinEvent(NodeConfig(101, 185.0, 5.0, tx_range=12.0)),
        ]
        batches = plan_parallel_join_batches(g, joins)
        assert len(batches) == 1

        def run(order):
            net = AdHocNetwork(MinimStrategy(), validate=True)
            for i in range(20):
                net.join(NodeConfig(i, 10.0 * i, 0.0, tx_range=12.0))
            for ev in order:
                net.apply(ev)
            return net.assignment.as_dict()

        assert run(batches[0]) == run(list(reversed(batches[0])))


def plan_batches_oracle(graph, joins, min_separation):
    """The join-batch planner as a plain loop: one full hop-distance BFS
    per candidate, and a fresh copy of the base graph per batch."""
    pending = list(joins)
    batches = []
    while pending:
        scratch = graph.copy()
        batch, leftovers = [], []
        for ev in pending:
            scratch.add_node(ev.config)
            dist = scratch.undirected_hop_distances(ev.config.node_id)
            if all(
                dist.get(other.config.node_id, min_separation) >= min_separation
                for other in batch
            ):
                batch.append(ev)
            else:
                scratch.remove_node(ev.config.node_id)
                leftovers.append(ev)
        batches.append(batch)
        for ev in batch:
            graph = graph.copy()
            graph.add_node(ev.config)
        pending = leftovers
    return batches


class TestJoinBatchPlannerOracle:
    @staticmethod
    def _configs(rng, ids):
        return [
            NodeConfig(
                i,
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 100)),
                float(rng.uniform(8, 22)),
            )
            for i in ids
        ]

    @per_kernel
    @pytest.mark.parametrize("min_separation", range(1, 6))
    @pytest.mark.parametrize("seed", range(3))
    def test_batches_match_the_full_bfs_planner(self, seed, min_separation):
        rng = np.random.default_rng(seed)
        base = build_digraph(self._configs(rng, range(30)))
        joins = [JoinEvent(cfg) for cfg in self._configs(rng, range(100, 116))]
        before = base.snapshot()
        got = plan_parallel_join_batches(base, joins, min_separation=min_separation)
        assert got == plan_batches_oracle(base, joins, min_separation)
        assert base.snapshot() == before
        assert sorted(ev.node_id for batch in got for ev in batch) == list(range(100, 116))
        if min_separation == 1:
            assert len(got) == 1  # distinct nodes are always >= 1 hop apart
        elif min_separation >= 3:
            assert len(got) > 1  # the random joins crowd each other
