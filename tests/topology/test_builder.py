"""Tests for bulk digraph construction."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.obstacles import RectObstacle
from repro.topology.builder import build_digraph, bulk_adjacency
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


class TestBuildDigraph:
    def test_duplicate_ids_rejected(self):
        cfgs = [NodeConfig(1, 0, 0, tx_range=1), NodeConfig(1, 5, 5, tx_range=1)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_digraph(cfgs)

    def test_empty(self):
        assert len(build_digraph([])) == 0

    @per_kernel
    def test_accepts_generator(self):
        g = build_digraph(NodeConfig(i, i * 5.0, 0.0, tx_range=6.0) for i in range(4))
        assert len(g) == 4 and g.has_edge(0, 1)


class TestBulkAdjacency:
    @per_kernel
    def test_matches_incremental_free_space(self):
        rng = np.random.default_rng(0)
        cfgs = [
            NodeConfig(i, *rng.uniform(0, 100, 2), tx_range=float(rng.uniform(10, 40)))
            for i in range(30)
        ]
        g = build_digraph(cfgs)
        ids, pos, ranges = g.positions_and_ranges()
        _, adj = g.adjacency()
        assert (bulk_adjacency(pos, ranges) == adj).all()

    def test_matches_incremental_obstructed(self):
        prop = ObstructedPropagation(obstacles=(RectObstacle(40, 0, 60, 100),))
        rng = np.random.default_rng(1)
        cfgs = [
            NodeConfig(i, *rng.uniform(0, 100, 2), tx_range=float(rng.uniform(10, 60)))
            for i in range(20)
        ]
        g = build_digraph(cfgs, propagation=prop)
        ids, pos, ranges = g.positions_and_ranges()
        _, adj = g.adjacency()
        assert (bulk_adjacency(pos, ranges, propagation=prop) == adj).all()

    def test_empty(self):
        assert bulk_adjacency(np.zeros((0, 2)), np.zeros(0)).shape == (0, 0)

    def test_no_self_loops(self):
        pos = np.zeros((3, 2))
        adj = bulk_adjacency(pos, np.ones(3))
        assert not adj.diagonal().any()
        assert adj.sum() == 6  # everyone covers everyone else
