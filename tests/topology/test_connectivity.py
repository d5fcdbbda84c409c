"""Tests for connectivity predicates."""

import pytest

from repro.topology.builder import build_digraph
from repro.topology.connectivity import (
    has_minimal_connectivity,
    weakly_connected_components,
)
from repro.topology.node import NodeConfig

# run every test once per edge kernel (see tests/conftest.py::use_kernel)
pytestmark = pytest.mark.usefixtures("each_kernel")


def cfg(i, x, r=12.0):
    return NodeConfig(i, float(x), 0.0, tx_range=float(r))


class TestMinimalConnectivity:
    def test_line_interior_ok(self, line_graph):
        assert all(has_minimal_connectivity(line_graph, v) for v in line_graph.node_ids())

    def test_isolated_node_fails(self):
        g = build_digraph([cfg(1, 0), cfg(2, 500)])
        assert not has_minimal_connectivity(g, 1)
        assert not has_minimal_connectivity(g, 2)

    def test_out_only_fails(self):
        # 1 reaches 2 but nobody reaches 1.
        g = build_digraph([cfg(1, 0, r=100), cfg(2, 50, r=10)])
        assert not has_minimal_connectivity(g, 1)  # no in-neighbor
        assert not has_minimal_connectivity(g, 2)  # no out-neighbor

    def test_asymmetric_triangle_ok(self):
        # 1 -> 2 -> 3 -> 1: everyone has one in and one out.
        g = build_digraph([cfg(1, 0, r=11), cfg(2, 10, r=11), cfg(3, 20, r=25)])
        g.set_range(3, 25.0)
        assert has_minimal_connectivity(g, 2)


class TestComponents:
    def test_single_component(self, line_graph):
        comps = weakly_connected_components(line_graph)
        assert comps == [{1, 2, 3, 4, 5}]

    def test_two_components_sorted_by_size(self):
        g = build_digraph(
            [cfg(1, 0), cfg(2, 10), cfg(3, 20), cfg(10, 500), cfg(11, 510)]
        )
        comps = weakly_connected_components(g)
        assert comps == [{1, 2, 3}, {10, 11}]

    def test_empty(self):
        g = build_digraph([])
        assert weakly_connected_components(g) == []

    def test_asymmetric_edge_connects(self):
        g = build_digraph([cfg(1, 0, r=100), cfg(2, 50, r=10)])
        assert weakly_connected_components(g) == [{1, 2}]
