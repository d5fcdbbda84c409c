"""The network-wide code assignment container.

Two interchangeable implementations share one observable behavior:

- :class:`CodeAssignment` — a validating dict wrapper, the reference.
- :class:`ArrayCodeAssignment` — a contiguous id-indexed color array
  with a color-class histogram, giving O(1) ``assign`` / ``max_color``
  for the event loop's per-event metric reads.  Used by the array
  conflict core's strategy lanes (``sim/network.py``).

Either class compares equal to the other when the mappings match, and
``diff`` / ``copy`` / serialization round-trips are class-preserving but
content-identical, so the choice of container never leaks into results.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import UncoloredNodeError
from repro.types import Color, NodeId, validate_color

__all__ = ["ArrayCodeAssignment", "CodeAssignment"]


class CodeAssignment:
    """Mutable mapping from node id to assigned code (positive int).

    A thin, validating wrapper over a dict, with the operations the
    recoding machinery needs: max code index, color classes, and diffs
    between assignments (the paper's "number of recodings" metric counts
    entries of the diff).
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: Mapping[NodeId, Color] | None = None) -> None:
        self._codes: dict[NodeId, Color] = {}
        if codes:
            for node, color in codes.items():
                self.assign(node, color)

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __getitem__(self, node: NodeId) -> Color:
        try:
            return self._codes[node]
        except KeyError:
            raise UncoloredNodeError(node) from None

    def get(self, node: NodeId, default: Color | None = None) -> Color | None:
        """Code of ``node`` or ``default`` if unassigned."""
        return self._codes.get(node, default)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted(self._codes))

    def items(self) -> list[tuple[NodeId, Color]]:
        """``(node, code)`` pairs, ascending by node id."""
        return sorted(self._codes.items())

    def nodes(self) -> list[NodeId]:
        """Assigned node ids, ascending."""
        return sorted(self._codes)

    def as_dict(self) -> dict[NodeId, Color]:
        """A plain-dict copy of the assignment."""
        return dict(self._codes)

    def __eq__(self, other: object) -> bool:
        # Compare through as_dict() so dict- and array-backed
        # assignments with the same content are equal.
        if isinstance(other, CodeAssignment):
            return self.as_dict() == other.as_dict()
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {c}" for v, c in self.items())
        return f"CodeAssignment({{{body}}})"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, node: NodeId, color: Color) -> None:
        """Set ``node``'s code; validates that the code is a positive int."""
        self._codes[node] = validate_color(color)

    def unassign(self, node: NodeId) -> Color:
        """Remove ``node``'s code (e.g., on leave); returns the old code."""
        try:
            return self._codes.pop(node)
        except KeyError:
            raise UncoloredNodeError(node) from None

    def apply(self, changes: Mapping[NodeId, Color]) -> None:
        """Assign every ``node -> code`` in ``changes``."""
        for node, color in changes.items():
            self.assign(node, color)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def max_color(self) -> int:
        """The maximum code index in use; 0 when empty.

        This is the paper's first performance metric ("maximum color
        index assigned in the network").
        """
        return max(self._codes.values(), default=0)

    def colors_of(self, nodes: Iterable[NodeId]) -> list[Color]:
        """Codes of ``nodes`` (all must be assigned), in iteration order."""
        return [self[v] for v in nodes]

    def color_array(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Codes of ``nodes`` as an int64 array, 0 where unassigned."""
        if isinstance(nodes, np.ndarray):
            nodes = nodes.tolist()
        codes = self._codes
        return np.fromiter((codes.get(v, 0) for v in nodes), dtype=np.int64)

    def color_classes(self) -> dict[Color, set[NodeId]]:
        """Map each in-use code to the set of nodes holding it."""
        classes: dict[Color, set[NodeId]] = {}
        for node, color in self._codes.items():
            classes.setdefault(color, set()).add(node)
        return classes

    def used_colors(self) -> set[Color]:
        """The set of codes currently in use."""
        return set(self._codes.values())

    def copy(self) -> "CodeAssignment":
        """An independent copy."""
        fresh = CodeAssignment()
        fresh._codes = dict(self._codes)
        return fresh

    def diff(self, other: "CodeAssignment") -> dict[NodeId, tuple[Color | None, Color | None]]:
        """Changes from ``self`` (old) to ``other`` (new).

        Returns ``{node: (old, new)}`` for every node whose code differs;
        ``None`` stands for "not assigned".  ``len(diff)`` is the number
        of recodings between the two assignments, counting first
        assignments and removals.
        """
        out: dict[NodeId, tuple[Color | None, Color | None]] = {}
        for node in set(self.nodes()) | set(other.nodes()):
            old = self.get(node)
            new = other.get(node)
            if old != new:
                out[node] = (old, new)
        return out


class ArrayCodeAssignment(CodeAssignment):
    """A :class:`CodeAssignment` backed by contiguous numpy arrays.

    Layout invariants:

    - ``_colors`` is an int64 array indexed **by node id** (not storage
      slot), value 0 (= ``NO_COLOR``) meaning unassigned; capacity grows
      by amortized doubling and never shrinks.  Node ids must be
      non-negative — negative ids would alias from the end of the array
      and are rejected.
    - ``_hist[c]`` counts nodes currently holding color ``c``, and
      ``_top`` is the largest in-use color (0 when empty), maintained
      incrementally so :meth:`max_color` — read once per event by every
      strategy lane — is O(1) instead of a Python ``max`` over a dict.

    Observable behavior is identical to the dict implementation; the
    replay pipeline chooses the class to match the digraph core, and
    serialized lane state is a plain dict either way.
    """

    __slots__ = ("_colors", "_hist", "_count", "_top")

    def __init__(self, codes: Mapping[NodeId, Color] | None = None) -> None:
        self._colors = np.zeros(64, dtype=np.int64)
        self._hist = np.zeros(64, dtype=np.int64)
        self._count = 0
        self._top = 0
        if codes:
            for node, color in codes.items():
                self.assign(node, color)

    # -- mapping interface ----------------------------------------------
    def __getitem__(self, node: NodeId) -> Color:
        if 0 <= node < len(self._colors):
            color = int(self._colors[node])
            if color:
                return color
        raise UncoloredNodeError(node)

    def get(self, node: NodeId, default: Color | None = None) -> Color | None:
        """Code of ``node`` or ``default`` if unassigned."""
        if 0 <= node < len(self._colors):
            color = int(self._colors[node])
            if color:
                return color
        return default

    def __contains__(self, node: NodeId) -> bool:
        return 0 <= node < len(self._colors) and bool(self._colors[node])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    def items(self) -> list[tuple[NodeId, Color]]:
        """``(node, code)`` pairs, ascending by node id."""
        assigned = np.flatnonzero(self._colors)
        return list(zip(assigned.tolist(), self._colors[assigned].tolist()))

    def nodes(self) -> list[NodeId]:
        """Assigned node ids, ascending."""
        return np.flatnonzero(self._colors).tolist()

    def as_dict(self) -> dict[NodeId, Color]:
        """A plain-dict copy of the assignment."""
        return dict(self.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {c}" for v, c in self.items())
        return f"ArrayCodeAssignment({{{body}}})"

    def color_array(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Codes of ``nodes`` as an int64 array, 0 where unassigned.

        One gather from the color array, whose own bounds check is the
        only test the common case pays; ids past its end (never
        assigned) read as 0.  Ids are node ids of this assignment,
        which are non-negative (:meth:`assign` rejects others).
        """
        ids = np.asarray(nodes, dtype=np.intp)
        colors = self._colors
        try:
            return colors[ids]
        except IndexError:  # some id lies past the end
            out = np.zeros(len(ids), dtype=np.int64)
            inside = (ids >= 0) & (ids < len(colors))
            out[inside] = colors[ids[inside]]
            return out

    # -- mutation -------------------------------------------------------
    def assign(self, node: NodeId, color: Color) -> None:
        """Set ``node``'s code; validates that the code is a positive int."""
        color = validate_color(color)
        if node < 0:
            raise ValueError(f"array assignment requires non-negative node ids, got {node}")
        if node >= len(self._colors):
            self._colors = self._grown(self._colors, node + 1)
        if color >= len(self._hist):
            self._hist = self._grown(self._hist, color + 1)
        old = int(self._colors[node])
        if old == color:
            return
        if old:
            self._hist[old] -= 1
        else:
            self._count += 1
        self._colors[node] = color
        self._hist[color] += 1
        if color > self._top:
            self._top = color
        elif old == self._top:
            self._settle_top()

    def unassign(self, node: NodeId) -> Color:
        """Remove ``node``'s code (e.g., on leave); returns the old code."""
        old = int(self._colors[node]) if 0 <= node < len(self._colors) else 0
        if not old:
            raise UncoloredNodeError(node)
        self._colors[node] = 0
        self._hist[old] -= 1
        self._count -= 1
        if old == self._top:
            self._settle_top()
        return old

    # -- queries --------------------------------------------------------
    def max_color(self) -> int:
        """The maximum code index in use; 0 when empty.  O(1)."""
        return self._top

    def color_classes(self) -> dict[Color, set[NodeId]]:
        """Map each in-use code to the set of nodes holding it."""
        classes: dict[Color, set[NodeId]] = {}
        for node, color in self.items():
            classes.setdefault(color, set()).add(node)
        return classes

    def used_colors(self) -> set[Color]:
        """The set of codes currently in use."""
        return set(np.flatnonzero(self._hist).tolist())

    def copy(self) -> "ArrayCodeAssignment":
        """An independent copy."""
        fresh = ArrayCodeAssignment()
        fresh._colors = self._colors.copy()
        fresh._hist = self._hist.copy()
        fresh._count = self._count
        fresh._top = self._top
        return fresh

    # -- internals ------------------------------------------------------
    def _settle_top(self) -> None:
        top = self._top
        while top > 0 and not self._hist[top]:
            top -= 1
        self._top = top

    @staticmethod
    def _grown(arr: np.ndarray, needed: int) -> np.ndarray:
        cap = len(arr)
        while cap < needed:
            cap *= 2
        fresh = np.zeros(cap, dtype=arr.dtype)
        fresh[: len(arr)] = arr
        return fresh
