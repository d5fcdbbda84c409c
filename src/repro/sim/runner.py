"""Run fan-out utilities.

Experiments average each data point over many independent runs (the
paper uses 100).  ``parallel_map`` optionally spreads runs across
processes; because every run's randomness derives from its own
``SeedSequence`` child, results are identical for any process count.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "resolve_runs"]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    processes: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, optionally across processes.

    ``processes in (None, 0, 1)`` runs serially.  For multi-process use,
    ``fn`` and the items must be picklable (the experiment runners use
    module-level functions and plain tuples).
    """
    items = list(items)
    if not processes or processes <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, items))


def resolve_runs(runs: int | None, default: int, env_value: str | None) -> int:
    """Resolve a run count from explicit argument, env override, default.

    Priority: explicit ``runs`` > ``env_value`` (e.g. ``REPRO_RUNS``) >
    ``default``.  A bad explicit argument is caller error
    (``ValueError``); *any* bad env-sourced value — non-integer or
    < 1 alike — is environment misconfiguration and raises
    :class:`ConfigurationError`.
    """
    if runs is not None:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        return runs
    if env_value:
        try:
            parsed = int(env_value)
        except ValueError:
            raise ConfigurationError(
                f"run-count env override must be an integer, got {env_value!r} "
                "(set e.g. REPRO_RUNS=10)"
            ) from None
        if parsed < 1:
            raise ConfigurationError(
                f"run-count env override must be >= 1, got {parsed} "
                "(set e.g. REPRO_RUNS=10)"
            )
        return parsed
    return default
