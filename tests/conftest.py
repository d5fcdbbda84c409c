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


#: The population at which graphs switch to the sparse core, as shipped.
_SPARSE_AUTO_MIN = digraph_mod._SPARSE_AUTO_MIN


def use_core(monkeypatch, core: str) -> None:
    """Make every graph built or restored from now on run ``core``.

    The population picks a graph's core, so this moves the promotion
    threshold: ``sparse`` lowers it to zero, which starts even an empty
    graph (and every restore) on the sparse rows; ``array`` keeps the
    shipped threshold, which no test population reaches.
    """
    threshold = 0 if core == "sparse" else _SPARSE_AUTO_MIN
    monkeypatch.setattr(digraph_mod, "_SPARSE_AUTO_MIN", threshold)


def core_graph(core: str, propagation=None) -> AdHocDigraph:
    """An empty digraph on the named conflict core (``array``/``sparse``).

    A graph built on the sparse core never returns to the array core,
    so the threshold only has to be moved while it is built.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_core(monkeypatch, core)
        return AdHocDigraph(propagation)


def restore_on(core: str, snapshot: dict, **kwargs) -> AdHocDigraph:
    """:meth:`AdHocDigraph.restore` ``snapshot`` straight onto ``core``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_core(monkeypatch, core)
        return AdHocDigraph.restore(snapshot, **kwargs)


@pytest.fixture(params=["array", "sparse"])
def each_core(request, monkeypatch) -> str:
    """Run the requesting test once per conflict core (see :func:`use_core`)."""
    use_core(monkeypatch, request.param)
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
