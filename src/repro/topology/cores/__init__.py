"""The two conflict cores behind :class:`~repro.topology.digraph.AdHocDigraph`.

:class:`~repro.topology.cores.array.ArrayCore` keeps adjacency and the
CA2 witness counters in dense blocks;
:class:`~repro.topology.cores.sparse.SparseCore` keeps them in CSR slot
rows and witness dicts.  Both implement one
slot-level interface, and the graph's population picks between them
(see :mod:`repro.topology.digraph`).
"""

from repro.topology.cores.array import ArrayCore
from repro.topology.cores.sparse import SparseCore

__all__ = ["ArrayCore", "SparseCore"]
