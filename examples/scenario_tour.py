#!/usr/bin/env python
"""Scenario-engine tour: the declarative catalog and a custom scenario.

Run:  PYTHONPATH=src python examples/scenario_tour.py

Walks the registered scenario catalog, runs two contrasting built-ins
(clustered placement vs hotspot churn) at a small scale, then defines
and runs a custom spec from scratch — a commuter scenario mixing
waypoint mobility with a power raise.
"""

from dataclasses import replace

from repro.sim import available_scenarios, get_scenario, run_sweep
from repro.sim.scenarios import MobilitySpec, PowerSpec, ScenarioSpec


def shrink(name: str, n: int = 24) -> "ScenarioSpec":
    """A small, fast copy of a registered scenario (for demo purposes)."""
    spec = get_scenario(name)
    return replace(
        spec, n=min(spec.n, n), sweep_values=spec.sweep_values[:2], strategies=("Minim", "CP")
    )


def main() -> None:
    print("registered scenarios:")
    for name in available_scenarios():
        print(f"  {name:<18} {get_scenario(name).description}")

    for name in ("poisson-cluster", "hotspot-churn"):
        print(f"\n=== {name} (shrunk) ===")
        series = run_sweep(shrink(name), runs=2, seed=42)
        print(series.table("max_color"))
        print(series.table("recodings"))

    # A custom scenario: commuters drift between waypoints, then half the
    # network raises power 2x to stay connected (Comaniciu & Poor's
    # cross-layer coupling, expressed declaratively).
    commuters = ScenarioSpec(
        name="commuters",
        description="Waypoint drift followed by a 2x power raise on half the nodes.",
        n=24,
        mobility=MobilitySpec(kind="waypoint", steps=3, speed_min=2.0, speed_max=6.0),
        power=PowerSpec(kind="raise", raisefactor=2.0, fraction=0.5),
        strategies=("Minim", "CP"),
        sweep_axis="steps",
        sweep_values=(1, 3),
    )
    print("\n=== commuters (custom spec) ===")
    series = run_sweep(commuters, runs=2, seed=7)
    print(series.table("max_color"))
    print(series.table("messages"))


if __name__ == "__main__":
    main()
