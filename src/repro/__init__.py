"""minim-cdma: minimal CDMA recoding in power-controlled ad-hoc networks.

A faithful, self-contained reproduction of Indranil Gupta, *Minimal CDMA
Recoding Strategies in Power-Controlled Ad-Hoc Wireless Networks*
(Cornell CS TR, January 2001 / IPPS 2001).

Quickstart
----------
>>> import numpy as np
>>> from repro import AdHocNetwork, MinimStrategy, NodeConfig
>>> net = AdHocNetwork(MinimStrategy())
>>> _ = net.join(NodeConfig(1, 10.0, 10.0, tx_range=25.0))
>>> _ = net.join(NodeConfig(2, 20.0, 15.0, tx_range=25.0))
>>> net.is_valid()
True

Package map
-----------
* :mod:`repro.topology` — the dynamic ad-hoc digraph and conflict graph.
* :mod:`repro.coloring` — code assignments, verification, heuristics.
* :mod:`repro.matching` — maximum-weight matching on a weight matrix.
* :mod:`repro.strategies` — Minim (the paper), CP and BBB baselines.
* :mod:`repro.events` — join / leave / move / power-change events.
* :mod:`repro.sim` — random networks, workloads, the scenario registry
  (the paper's five figure sweeps are ``fig10-join`` …
  ``fig12-move-rounds``) and :func:`repro.sim.sweep.run_sweep`, the one
  way to run a sweep.
* :mod:`repro.distributed` — message-driven protocol executions.
* :mod:`repro.cdma` — Walsh-code physical layer.
* :mod:`repro.gossip` — quiet-period code compaction (section 6).
* :mod:`repro.analysis` — series containers, tables, shape checks.
"""

from repro._version import __version__
from repro.coloring import CodeAssignment, bbb_coloring, find_violations, is_valid
from repro.events import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.sim import AdHocNetwork, sample_configs
from repro.strategies import (
    BBBGlobalStrategy,
    CPStrategy,
    GreedySequentialStrategy,
    MinimStrategy,
    RecodeResult,
    RecodingStrategy,
)
from repro.topology import AdHocDigraph, NodeConfig, build_digraph

__all__ = [
    "AdHocDigraph",
    "AdHocNetwork",
    "BBBGlobalStrategy",
    "CPStrategy",
    "CodeAssignment",
    "GreedySequentialStrategy",
    "JoinEvent",
    "LeaveEvent",
    "MinimStrategy",
    "MoveEvent",
    "NodeConfig",
    "PowerChangeEvent",
    "RecodeResult",
    "RecodingStrategy",
    "__version__",
    "bbb_coloring",
    "build_digraph",
    "find_violations",
    "is_valid",
    "sample_configs",
]
