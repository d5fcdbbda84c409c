"""Tests for the dynamic AdHocDigraph."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DuplicateNodeError, UnknownNodeError
from repro.topology.builder import build_digraph, bulk_adjacency
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig

# run every test once per edge kernel (see tests/conftest.py::use_kernel)
pytestmark = pytest.mark.usefixtures("each_kernel")


def cfg(i, x, y, r=12.0):
    return NodeConfig(i, float(x), float(y), tx_range=float(r))


class TestBasicOps:
    def test_empty(self):
        g = AdHocDigraph()
        assert len(g) == 0
        assert g.node_ids() == []
        assert g.edge_count() == 0

    def test_add_and_query(self, line_graph):
        g = line_graph
        assert len(g) == 5
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 3)
        assert g.out_neighbors(2) == [1, 3]
        assert g.in_neighbors(3) == [2, 4]
        assert g.undirected_neighbors(3) == [2, 4]

    def test_duplicate_join_rejected(self, line_graph):
        with pytest.raises(DuplicateNodeError):
            line_graph.add_node(cfg(3, 0, 0))

    def test_unknown_node_raises(self, line_graph):
        with pytest.raises(UnknownNodeError):
            line_graph.out_neighbors(99)
        with pytest.raises(UnknownNodeError):
            line_graph.config(99)

    def test_config_roundtrip(self, line_graph):
        c = line_graph.config(2)
        assert c == NodeConfig(2, 20.0, 0.0, tx_range=12.0)
        assert line_graph.position_of(2) == (20.0, 0.0)
        assert line_graph.range_of(2) == 12.0

    def test_asymmetric_edges(self):
        g = build_digraph([cfg(1, 0, 0, r=100), cfg(2, 50, 0, r=10)])
        assert g.has_edge(1, 2) and not g.has_edge(2, 1)
        assert g.out_degree(1) == 1 and g.in_degree(1) == 0
        assert g.out_degree(2) == 0 and g.in_degree(2) == 1

    def test_edges_iteration(self, line_graph):
        edges = set(line_graph.edges())
        assert (1, 2) in edges and (2, 1) in edges
        assert len(edges) == line_graph.edge_count() == 8


class TestMutation:
    def test_remove_node(self, line_graph):
        line_graph.remove_node(3)
        assert 3 not in line_graph
        assert line_graph.node_ids() == [1, 2, 4, 5]
        assert line_graph.out_neighbors(2) == [1]
        assert line_graph.in_neighbors(4) == [5]

    def test_remove_returns_config(self, line_graph):
        c = line_graph.remove_node(5)
        assert c.node_id == 5 and c.position == (50.0, 0.0)

    def test_remove_then_rejoin(self, line_graph):
        c = line_graph.remove_node(1)
        line_graph.add_node(c)
        assert line_graph.has_edge(1, 2)

    def test_move_updates_both_directions(self, line_graph):
        line_graph.move_node(1, 25.0, 0.0)  # now between 2 and 3
        assert line_graph.out_neighbors(1) == [2, 3]
        assert line_graph.in_neighbors(1) == [2, 3]

    def test_set_range_only_affects_out_edges(self, line_graph):
        line_graph.set_range(1, 100.0)
        assert line_graph.out_neighbors(1) == [2, 3, 4, 5]
        assert line_graph.in_neighbors(1) == [2]  # others unchanged

    def test_set_range_rejects_nonpositive(self, line_graph):
        with pytest.raises(ConfigurationError):
            line_graph.set_range(1, 0.0)

    def test_capacity_growth(self):
        g = AdHocDigraph()
        for i in range(100):
            g.add_node(cfg(i, i * 0.5, 0, r=2.0))
        assert len(g) == 100
        assert g.has_edge(10, 11)

    def test_copy_independent(self, line_graph):
        g2 = line_graph.copy()
        g2.remove_node(1)
        assert 1 in line_graph and 1 not in g2


class TestAgainstBulkOracle:
    @given(st.integers(0, 200))
    def test_random_event_sequences_match_bulk_adjacency(self, seed):
        rng = np.random.default_rng(seed)
        g = AdHocDigraph()
        alive = []
        next_id = 0
        for _ in range(30):
            op = rng.integers(0, 4)
            if op == 0 or not alive:
                c = cfg(next_id, rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(5, 40))
                g.add_node(c)
                alive.append(next_id)
                next_id += 1
            elif op == 1 and len(alive) > 1:
                v = alive.pop(int(rng.integers(0, len(alive))))
                g.remove_node(v)
            elif op == 2:
                v = alive[int(rng.integers(0, len(alive)))]
                g.move_node(v, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            else:
                v = alive[int(rng.integers(0, len(alive)))]
                g.set_range(v, float(rng.uniform(5, 40)))
        ids, pos, ranges = g.positions_and_ranges()
        _, adj = g.adjacency()
        assert (adj == bulk_adjacency(pos, ranges)).all()
        assert ids == sorted(alive)


class TestHopDistances:
    def test_line_distances(self, line_graph):
        d = line_graph.undirected_hop_distances(1)
        assert d == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_disconnected_absent(self):
        g = build_digraph([cfg(1, 0, 0, r=5), cfg(2, 50, 0, r=5)])
        assert g.undirected_hop_distances(1) == {1: 0}

    def test_asymmetric_edges_count_undirected(self):
        g = build_digraph([cfg(1, 0, 0, r=100), cfg(2, 50, 0, r=10)])
        assert g.undirected_hop_distances(2) == {2: 0, 1: 1}


class TestNetworkxExport:
    def test_roundtrip(self, line_graph):
        nxg = line_graph.to_networkx()
        assert set(nxg.nodes) == {1, 2, 3, 4, 5}
        assert set(nxg.edges) == set(line_graph.edges())
        assert nxg.nodes[1]["tx_range"] == 12.0


def _edgeless_snapshot(n: int) -> dict:
    """A snapshot of ``n`` nodes 10 apart on a grid, each with range 1."""
    return {
        "schema": 3,
        "propagation": "FreeSpacePropagation",
        "dense": False,
        "version": n,
        "explicit_cell": None,
        "grid_cell_size": 1.0,
        "nodes": [[i, 10.0 * (i % 64), 10.0 * (i // 64), 1.0] for i in range(n)],
        "edges": [],
        "c2": [],
    }


class TestPopulationLimit:
    """The array core's blocks cap a graph below 4096 nodes."""

    @pytest.fixture(scope="class")
    def full(self):
        return AdHocDigraph.restore(_edgeless_snapshot(4095))

    def test_join_past_the_limit_raises_and_leaves_the_graph(self, full):
        before = full.snapshot()
        with pytest.raises(ConfigurationError, match=r"from 4095 to 4096 nodes.*fewer than 4096"):
            full.add_node(NodeConfig(5000, 5.0, 5.0, 1.0))
        assert 5000 not in full
        assert full.snapshot() == before

    def test_delta_past_the_limit_raises_and_leaves_the_graph(self, full):
        before = full.snapshot()
        delta = {
            "schema": 1,
            "kind": "digraph-delta",
            "base_version": full.version,
            "version": full.version + 1,
            "n": 4096,
            "cell": 1.0,
            "slots": [[4095, 5000, 5.0, 5.0, 1.0, [], []]],
        }
        with pytest.raises(ConfigurationError, match="4096 nodes"):
            full.apply_delta(delta)
        assert full.snapshot() == before

    def test_restoring_a_snapshot_at_the_limit_raises(self):
        with pytest.raises(ConfigurationError, match=r"to 4096 nodes.*fewer than 4096"):
            AdHocDigraph.restore(_edgeless_snapshot(4096))
