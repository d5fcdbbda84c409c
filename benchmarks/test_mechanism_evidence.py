"""The mechanism-evidence script: pairing, digests and byte identity."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

import mechanism_evidence as ev
from repro.sim.registry import get_scenario
from repro.sim.sweep import build_sweep, plan_tasks


def _series(metrics, stderr):
    return SimpleNamespace(x_values=[6.0, 8.0], metrics=metrics, stderr=stderr)


@pytest.fixture(scope="module")
def tiny_sweeps():
    spec = replace(
        get_scenario("paper-join"),
        n=10,
        strategies=("Minim", "CP"),
        sweep_values=(6.0, 8.0),
    )
    return [SimpleNamespace(spec=lambda: spec, runs=2)]


@pytest.fixture(scope="module")
def paired_sweeps():
    """A paired sweep over a perturbation axis, which plans warm groups."""
    spec = replace(
        get_scenario("fig11-power"),
        n=10,
        strategies=("Minim", "CP"),
        sweep_values=(1.0, 2.0, 3.0),
    )
    return [SimpleNamespace(spec=lambda: spec, runs=2)]


def test_merge_matches_the_shared_digest():
    shared = _series(
        {"recodings": {"Minim": [1.0, 2.0], "CP": [3.0, 4.0]}},
        {"recodings": {"Minim": [0.1, 0.2], "CP": [0.3, 0.4]}},
    )
    parts = [
        _series({"recodings": {"Minim": [1.0, 2.0]}}, {"recodings": {"Minim": [0.1, 0.2]}}),
        _series({"recodings": {"CP": [3.0, 4.0]}}, {"recodings": {"CP": [0.3, 0.4]}}),
    ]
    assert ev._merge(parts) == ev._digest(shared)
    parts[1].metrics["recodings"]["CP"] = [3.0, 5.0]
    assert ev._merge(parts) != ev._digest(shared)


def test_pairs_alternate_which_side_goes_first(monkeypatch):
    order = []

    def run(sweeps, seed, shared):
        order.append(shared)
        return ["same"]

    monkeypatch.setitem(ev.CASES, "fake", (run, ("paper-figs",)))
    row = ev.measure("fake", "paper-figs", pairs=3, seed=1)
    assert order == [True, False, False, True, True, False]
    assert row["pairs"] == 3 and 0 <= row["won"] <= 3
    q1, q3 = row["iqr"]
    assert q1 <= row["ratio"] <= q3


def test_differing_series_fail_the_pair(monkeypatch):
    monkeypatch.setitem(
        ev.CASES, "fake", (lambda sweeps, seed, shared: [str(shared)], ("paper-figs",))
    )
    with pytest.raises(AssertionError, match="series differ"):
        ev.measure("fake", "paper-figs", pairs=2, seed=1)


def test_fewer_than_two_pairs_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        ev.main(["--pairs", "1"])
    assert exc.value.code == 2


def test_warm_start_off_reproduces_the_warm_series(paired_sweeps):
    (s,) = paired_sweeps
    sweep = build_sweep(s.spec(), runs=s.runs, seed=3)
    assert any(g.warm for g in plan_tasks(sweep))
    assert not any(g.warm for g in plan_tasks(sweep, warm_start=False))
    assert ev._warm(paired_sweeps, 3, True) == ev._warm(paired_sweeps, 3, False)


def test_per_strategy_sweeps_reproduce_the_shared_lineup(tiny_sweeps):
    assert ev._lineup(tiny_sweeps, 3, True) == ev._lineup(tiny_sweeps, 3, False)
