"""Pure-Python reference kernels for the compiled coloring heuristics.

These are the textbook set-based loops that the production kernels
replaced; those now run as compiled C (``repro._native``) behind the
entry points in ``repro.coloring``.  The loops are kept only as oracles:
the kernels must return exactly what these return, tie-breaking
included, so every BBB series stays byte-identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def dsatur_oracle(conflicts: np.ndarray) -> np.ndarray:
    """DSATUR colors (1-based): max saturation, then max degree, then min index."""
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors
    degree = conflicts.sum(axis=1)
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    for _ in range(n):
        best = min(uncolored, key=lambda i: (-len(neighbor_colors[i]), -int(degree[i]), i))
        used = neighbor_colors[best]
        c = 1
        while c in used:
            c += 1
        colors[best] = c
        uncolored.discard(best)
        for j in np.flatnonzero(conflicts[best]):
            neighbor_colors[int(j)].add(c)
    return colors


def greedy_oracle(conflicts: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """First-fit colors (1-based) in ``order``."""
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    for i in order:
        neighbor_colors = colors[conflicts[i]]
        used = set(int(c) for c in neighbor_colors[neighbor_colors > 0])
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return colors


def smallest_last_oracle(conflicts: np.ndarray) -> list[int]:
    """Reverse of iterated minimum-degree removal, ties on the lower index."""
    n = conflicts.shape[0]
    degree = conflicts.sum(axis=1).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    removal: list[int] = []
    for _ in range(n):
        alive_idx = np.flatnonzero(alive)
        i = int(alive_idx[np.lexsort((alive_idx, degree[alive_idx]))[0]])
        removal.append(i)
        alive[i] = False
        degree[conflicts[i] & alive] -= 1
    removal.reverse()
    return removal


def bbb_oracle(conflicts: np.ndarray) -> np.ndarray:
    """BBB without the clique-bound shortcut: both passes, ties prefer DSATUR."""
    dsatur = dsatur_oracle(conflicts)
    sl = greedy_oracle(conflicts, smallest_last_oracle(conflicts))
    ds_max = int(dsatur.max()) if len(dsatur) else 0
    sl_max = int(sl.max()) if len(sl) else 0
    return dsatur if ds_max <= sl_max else sl
