"""The conflict core behind :class:`~repro.topology.digraph.AdHocDigraph`.

:class:`~repro.topology.cores.array.ArrayCore` keeps adjacency and the
CA2 witness counters in dense blocks behind a slot-level interface
(see :mod:`repro.topology.digraph`).
"""

from repro.topology.cores.array import ArrayCore

__all__ = ["ArrayCore"]
