"""The bench-regression CI gate: throughput ratios and speedup floors."""

from __future__ import annotations

import json

import pytest

from check_bench_regression import main as gate


def _write(path, entries):
    path.write_text(json.dumps(entries))
    return path


@pytest.fixture()
def files(tmp_path):
    entries = [
        {"scenario": "s", "mode": "off", "events_per_sec": 1000.0},
        {
            "scenario": "obs-overhead",
            "mode": "on",
            "events_per_sec": 2000.0,
            "trace_on_vs_off": 2.0,
        },
    ]
    baseline = _write(tmp_path / "baseline.json", entries)
    fresh = _write(tmp_path / "fresh.json", entries)
    return baseline, fresh


class TestGate:
    def test_identical_runs_pass(self, files):
        baseline, fresh = files
        assert gate(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0

    def test_throughput_regression_fails(self, files, tmp_path):
        baseline, _ = files
        slow = _write(
            tmp_path / "slow.json",
            [{"scenario": "s", "mode": "off", "events_per_sec": 100.0}],
        )
        assert gate(["--baseline", str(baseline), "--fresh", str(slow)]) == 1

    def test_speedup_floor_pass_and_fail(self, files):
        baseline, fresh = files
        ok = ["--baseline", str(baseline), "--fresh", str(fresh)]
        assert gate(ok + ["--min-speedup", "trace_on_vs_off=1.5"]) == 0
        assert gate(ok + ["--min-speedup", "trace_on_vs_off=2.5"]) == 1

    def test_baseline_entry_missing_from_fresh_run_fails(self, files, tmp_path):
        # a deleted or renamed family must not drop its throughput
        # check silently: the baseline has to be regenerated with it
        baseline, _ = files
        partial = _write(
            tmp_path / "partial.json",
            [{"scenario": "s", "mode": "off", "events_per_sec": 1000.0}],
        )
        assert gate(["--baseline", str(baseline), "--fresh", str(partial)]) == 1

    def test_fresh_entry_missing_from_baseline_passes(self, files, tmp_path):
        # coverage may grow: a new family has no baseline yet
        _, fresh = files
        partial = _write(
            tmp_path / "partial.json",
            [{"scenario": "s", "mode": "off", "events_per_sec": 1000.0}],
        )
        assert gate(["--baseline", str(partial), "--fresh", str(fresh)]) == 0

    def test_scoped_floor_gates_only_its_entry(self, tmp_path):
        # the same field can be a hard claim on one entry only
        entries = [
            {"scenario": "a", "mode": "on", "events_per_sec": 10.0, "speedup": 0.5},
            {"scenario": "b", "mode": "on", "events_per_sec": 10.0, "speedup": 4.0},
        ]
        path = _write(tmp_path / "scoped.json", entries)
        args = ["--baseline", str(path), "--fresh", str(path)]
        assert gate(args + ["--min-speedup", "b/on:speedup=3"]) == 0
        assert gate(args + ["--min-speedup", "speedup=3"]) == 1

    def test_floor_matching_no_entry_fails_the_gate(self, files):
        # a typo'd field (or a bench that stopped emitting it) must not
        # silently disable the speedup gate
        baseline, fresh = files
        args = ["--baseline", str(baseline), "--fresh", str(fresh)]
        assert gate(args + ["--min-speedup", "speedup_vs_nothing=9.9"]) == 1

    @pytest.mark.parametrize("bad", ["trace_on_vs_off=fast", "=1.2", "nofloor"])
    def test_malformed_min_speedup_is_a_usage_error(self, files, bad):
        baseline, fresh = files
        argv = ["--baseline", str(baseline), "--fresh", str(fresh), "--min-speedup", bad]
        with pytest.raises(SystemExit) as exc:
            gate(argv)
        assert exc.value.code == 2
