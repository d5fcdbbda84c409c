"""Shared fixtures and hypothesis profiles."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import repro.topology.digraph as digraph_mod
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.minim import MinimStrategy
from repro.topology.builder import build_digraph
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig

# Hypothesis: property tests run whole simulations per example, so cap
# example counts modestly and disable deadlines (REPRO_HYPOTHESIS_EXAMPLES
# scales up for a deeper run).
_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "25"))
settings.register_profile(
    "repro",
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


#: The shipped thresholds of the array core's slot grid (see
#: ``topology/digraph.py``); no test population reaches them.
_GRID_LAZY_MIN = digraph_mod._GRID_LAZY_MIN
_MIN_SELECTIVE_CELLS = digraph_mod._MIN_SELECTIVE_CELLS

#: The two ways the array core finds a slot's neighbours.
SCANS = ("scan", "grid")


def use_scan(monkeypatch, scan: str) -> None:
    """Make every graph built or restored from now on find neighbours by ``scan``.

    ``scan`` keeps the shipped thresholds, so small test graphs test
    every slot with full-row scans.  ``grid`` drops both thresholds to
    zero: the slot grid is built from the first node (and on every
    restore or delta), kept up to date through joins, leaves, moves,
    regrids, forks and copies, and ``refresh`` gathers from grid
    candidate subsets wherever the query window is selective.
    """
    grid = scan == "grid"
    monkeypatch.setattr(digraph_mod, "_GRID_LAZY_MIN", 0 if grid else _GRID_LAZY_MIN)
    monkeypatch.setattr(
        digraph_mod, "_MIN_SELECTIVE_CELLS", 0 if grid else _MIN_SELECTIVE_CELLS
    )


@pytest.fixture(params=SCANS)
def each_scan(request, monkeypatch) -> str:
    """Run the requesting test once per neighbour search (see :func:`use_scan`)."""
    use_scan(monkeypatch, request.param)
    return request.param


def make_random_graph(
    seed: int,
    n: int = 20,
    *,
    min_range: float = 20.5,
    max_range: float = 30.5,
) -> AdHocDigraph:
    """A random paper-style digraph (positions on the 100x100 square)."""
    rng = np.random.default_rng(seed)
    return build_digraph(sample_configs(n, rng, min_range=min_range, max_range=max_range))


def make_colored_network(seed: int, n: int = 20, **kwargs) -> AdHocNetwork:
    """A network built by sequential Minim joins (valid assignment)."""
    rng = np.random.default_rng(seed)
    net = AdHocNetwork(MinimStrategy(), validate=True)
    for cfg in sample_configs(n, rng, **kwargs):
        net.join(cfg)
    return net


@pytest.fixture
def small_network() -> AdHocNetwork:
    """A 15-node Minim-joined network with a valid assignment."""
    return make_colored_network(seed=42, n=15)


@pytest.fixture
def line_graph() -> AdHocDigraph:
    """Five nodes on a line, ranges covering only adjacent nodes."""
    return build_digraph(
        NodeConfig(i, 10.0 * i, 0.0, tx_range=12.0) for i in range(1, 6)
    )
