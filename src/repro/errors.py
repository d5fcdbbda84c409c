"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed with invalid parameters.

    Examples: a non-positive transmission range, a duplicate node
    identifier, an empty parameter sweep.
    """


class UnknownNodeError(ReproError, KeyError):
    """An operation referenced a node identifier not present in the graph."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:  # KeyError quotes its payload; we want prose.
        return f"unknown node id {self.node_id!r}"


class DuplicateNodeError(ReproError):
    """A join attempted to reuse an identifier already in the network."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node id {node_id!r} already present in the network")
        self.node_id = node_id


class ConnectivityError(ReproError):
    """The Minimal Connectivity assumption (paper section 2) was violated.

    A node may only take a configuration in which it has at least one
    in-neighbor and at least one out-neighbor.
    """


class ColoringConflictError(ReproError):
    """A code assignment violates CA1 (primary) or CA2 (hidden) somewhere."""


class UncoloredNodeError(ReproError, KeyError):
    """A node present in the topology has no assigned code."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:
        return f"node {self.node_id!r} has no assigned code"


class MatchingError(ReproError):
    """The matcher was given a weight matrix it cannot solve exactly.

    Examples: a weight array that is not 2-D, a non-finite weight, or a
    Minim plan whose weights would leave float64's exact integers.
    """


class InvalidEventError(ReproError):
    """An event cannot be applied to the current network state.

    Examples: a power *increase* event whose new range is smaller than the
    current one when strict direction checking is requested, or a move for
    a node that does not exist.
    """


class ProtocolError(ReproError):
    """A distributed protocol reached an inconsistent local state."""


class CodebookError(ReproError):
    """The CDMA codebook cannot accommodate a requested code index."""
