"""Event-loop bench: the two conflict cores, head to head.

Times the strategy-independent event loop (topology mutation + V1
conflict derivation) on the array and sparse cores, mirroring what
``minim-cdma bench`` reports, so `--benchmark-compare` runs track the
sparse core's small-N overhead over time.
"""

import numpy as np
import pytest

from repro.events.base import JoinEvent
from repro.sim.bench import drive_event_loop
from repro.sim.random_networks import sample_configs

N = 120
SEED = 2001


@pytest.fixture(scope="module")
def join_trace():
    rng = np.random.default_rng(SEED)
    return [JoinEvent(c) for c in sample_configs(N, rng)]


def test_eventloop_join_array(benchmark, join_trace):
    wall = benchmark(drive_event_loop, join_trace, mode="array")
    assert wall > 0.0


def test_eventloop_join_sparse(benchmark, join_trace):
    wall = benchmark(drive_event_loop, join_trace, mode="sparse")
    assert wall > 0.0
