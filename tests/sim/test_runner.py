"""Run fan-out utilities: parallel_map plumbing and run-count resolution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.runner import parallel_map, resolve_runs


class TestResolveRuns:
    def test_explicit_wins(self):
        assert resolve_runs(7, 5, "3") == 7

    def test_env_beats_default(self):
        assert resolve_runs(None, 5, "3") == 3

    def test_default_fallback(self):
        assert resolve_runs(None, 5, None) == 5

    def test_rejects_nonpositive_explicit(self):
        with pytest.raises(ValueError):
            resolve_runs(0, 5, None)

    def test_nonpositive_env_raises_configuration_error(self):
        # every env-derived failure is environment misconfiguration, so
        # "0" must match the non-integer case, not surface as ValueError
        with pytest.raises(ConfigurationError, match=">= 1"):
            resolve_runs(None, 5, "0")
        with pytest.raises(ConfigurationError, match="-2"):
            resolve_runs(None, 5, "-2")

    def test_non_numeric_env_raises_configuration_error(self):
        # e.g. REPRO_RUNS=ten must not surface as a bare ValueError
        with pytest.raises(ConfigurationError, match="'ten'"):
            resolve_runs(None, 5, "ten")
        with pytest.raises(ConfigurationError, match="REPRO_RUNS"):
            resolve_runs(None, 5, "3.5")


class TestParallelMap:
    def test_serial_matches_map(self):
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_single_item_short_circuits(self):
        assert parallel_map(lambda x: x + 1, [41], processes=8) == [42]
