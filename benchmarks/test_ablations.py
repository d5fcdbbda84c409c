"""Ablation benches for the design choices DESIGN.md calls out.

* Weight-3 old-color edges vs weight-1 (removes the retention bias).
* Maximum-weight matching vs greedy sequential reassignment.
* Gossip compaction after power-increase churn (section 6 future work).
"""

import numpy as np

from benchmarks.conftest import RUNS, SEED, emit, figure, run_once
from repro.coloring.verify import is_valid
from repro.gossip import gossip_compaction, kempe_compaction
from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.sim.sweep import run_sweep
from repro.sim.workloads import power_raise_workload
from repro.strategies.minim import MinimStrategy

N_VALUES = (40, 80)


def test_ablation_old_color_weight(benchmark):
    """Dropping the weight-3 retention bias explodes recoding counts.

    This isolates *why* the paper weights old-color edges 3: with weight
    1 the matching still restores validity but shuffles colors freely,
    so the "minimal recoding" property is lost.
    """
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig10-join", N_VALUES), runs=RUNS, seed=SEED, strategies=("Minim", "Minim/w1")
        ),
    )
    emit(series, "recodings", "Ablation: old-color weight 3 vs 1 (recodings)")
    emit(series, "max_color", "Ablation: old-color weight 3 vs 1 (max color)")
    base = series.series("recodings", "Minim")
    ablated = series.series("recodings", "Minim/w1")
    # The ablated variant recodes strictly more everywhere, and the gap
    # widens with network size (>= 1.5x at the largest N).
    assert all(a >= 1.15 * b for a, b in zip(ablated, base))
    assert ablated[-1] >= 1.5 * base[-1]


def test_ablation_matching_vs_greedy(benchmark):
    """Matching vs keep-or-lowest greedy: same minimality on joins, but
    the matching reuses the palette at least as well."""
    series = run_once(
        benchmark,
        lambda: run_sweep(
            figure("fig10-join", N_VALUES), runs=RUNS, seed=SEED, strategies=("Minim", "GreedySeq")
        ),
    )
    emit(series, "max_color", "Ablation: matching vs greedy sequential (max color)")
    emit(series, "recodings", "Ablation: matching vs greedy sequential (recodings)")
    minim = series.series("max_color", "Minim")
    greedy = series.series("max_color", "GreedySeq")
    assert sum(minim) <= sum(greedy) + 1e-9


def _gossip_gain():
    gains = []
    for seed in range(RUNS):
        rng = np.random.default_rng(SEED + seed)
        configs = sample_configs(60, rng)
        net = AdHocNetwork(MinimStrategy())
        for cfg in configs:
            net.join(cfg)
        for ev in power_raise_workload(configs, 2.5, rng):
            net.apply(ev)
        before = net.max_color()
        plain = gossip_compaction(net.graph, net.assignment, rng=np.random.default_rng(seed))
        kempe = kempe_compaction(net.graph, net.assignment, rng=np.random.default_rng(seed))
        assert is_valid(net.graph, plain.assignment)
        assert is_valid(net.graph, kempe.assignment)
        gains.append(
            (
                before,
                plain.assignment.max_color(),
                kempe.assignment.max_color(),
                len(kempe.recolors),
                kempe.rounds,
            )
        )
    return gains


def test_gossip_compaction_after_churn(benchmark):
    """Section 6 future work: quiet-period gossip recovers code reuse.

    Compares plain lowest-free descent against the Kempe-swap variant.
    """
    gains = run_once(benchmark, _gossip_gain)
    print("\n=== Gossip compaction after power churn ===")
    print(f"{'before':>8} {'descent':>8} {'kempe':>8} {'recolors':>9} {'rounds':>7}")
    for before, descent, kempe, recolors, rounds in gains:
        print(f"{before:>8} {descent:>8} {kempe:>8} {recolors:>9} {rounds:>7}")
    # Compaction never hurts; Kempe never ends worse than plain descent.
    assert all(descent <= before for before, descent, *_x in gains)
    assert all(kempe <= descent for _b, descent, kempe, *_x in gains)
