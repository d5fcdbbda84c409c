"""Shared fixtures and hypothesis profiles."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.sim.sweep import build_sweep, plan_tasks, run_sweep
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


#: The two ways the array core computes a slot's edges under the
#: free-space disc (see ``ArrayCore.refresh``).
KERNELS = ("inline", "model")

_INIT = AdHocDigraph.__init__


def _model_init(self, *args, **kwargs):
    _INIT(self, *args, **kwargs)
    self._fs = False


def use_kernel(monkeypatch, kernel: str) -> None:
    """Make every graph built or restored from now on compute edges by ``kernel``.

    ``inline`` is the shipped free-space path: ``ArrayCore.refresh``
    evaluates the closed disc with its own distance pass.  ``model``
    clears the graph's free-space gate, so ``refresh`` dispatches to the
    propagation model through ``pairwise_masks`` — the path every other
    model takes.  The two must give identical edges, counters and
    snapshots.
    """
    monkeypatch.setattr(
        AdHocDigraph, "__init__", _INIT if kernel == "inline" else _model_init
    )


@pytest.fixture(params=KERNELS)
def each_kernel(request, monkeypatch) -> str:
    """Run the requesting test once per edge kernel (see :func:`use_kernel`)."""
    use_kernel(monkeypatch, request.param)
    return request.param


def series_json(series) -> str:
    """A series' results as JSON, without ``notes`` (the computed/cached split)."""
    out = series.to_dict()
    out.pop("notes")
    return json.dumps(out, sort_keys=True)


def per_value_json(spec, *, runs: int, seed: int, **run_kwargs) -> str:
    """The cold reference of a paired sweep: one ``run_sweep`` per sweep value.

    Paired run seeds do not depend on the point count, so each one-value
    sweep plans no warm group (asserted here) and replays its points
    cold.  Returns the concatenated series in :func:`series_json` form,
    which must equal the grouped sweep's.
    """
    assert spec.paired_runs, "an unpaired sweep's run seeds depend on its point count"
    parts = []
    for value in spec.sweep_values:
        one = replace(spec, sweep_values=(value,))
        assert not any(g.warm for g in plan_tasks(build_sweep(one, runs=runs, seed=seed)))
        parts.append(json.loads(series_json(run_sweep(one, runs=runs, seed=seed, **run_kwargs))))
    out = dict(parts[0], x_values=[x for part in parts for x in part["x_values"]])
    for table in ("metrics", "stderr"):
        out[table] = {
            metric: {s: [y for part in parts for y in part[table][metric][s]] for s in by_strategy}
            for metric, by_strategy in parts[0][table].items()
        }
    return json.dumps(out, sort_keys=True)


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
