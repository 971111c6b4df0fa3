"""Table V — Top Guess Attack F1 and model NDCG under each defense.

Paper shape: without any defense the curious server recovers the client's
positives almost perfectly (F1 ≈ 0.97+); LDP only partially hides them and
costs utility; sampling cuts the attack to ~0.5 F1 at almost no utility
cost; sampling + swapping pushes it down further (~0.4).

The twelve runs (four defenses on three datasets) execute as one
:mod:`repro.sweep` sweep (``sweeps.py``), fingerprint-cached, so Table VI
and Figure 3 reuse them instead of training them again.
"""

from __future__ import annotations

import pytest

from conftest import DATASET_NAMES, PAPER_NAMES, print_table
from sweeps import (
    DEFENSE_LABELS,
    DEFENSES,
    defense_results,
    defense_sweep,
    privacy_metrics,
)

from repro.sweep import run_sweep


def _run(sweep_store):
    outcome = run_sweep(defense_sweep(), store=sweep_store)
    return defense_results(privacy_metrics(outcome))


@pytest.mark.benchmark(group="table5")
def test_table5_privacy_defenses(benchmark, sweep_store):
    results = benchmark.pedantic(lambda: _run(sweep_store), rounds=1, iterations=1)
    header = ["Defense"]
    for name in DATASET_NAMES:
        header.extend([f"{PAPER_NAMES[name]} F1", f"{PAPER_NAMES[name]} NDCG@20"])
    rows = []
    for defense in DEFENSES:
        row = [DEFENSE_LABELS[defense]]
        for name in DATASET_NAMES:
            row.extend([results[name][defense]["F1"], results[name][defense]["NDCG@20"]])
        rows.append(row)
    print_table("Table V — privacy-preserving upload construction", header, rows)

    for name in DATASET_NAMES:
        sweep = results[name]
        # The undefended upload must leak positives almost perfectly.
        assert sweep["none"]["F1"] > 0.9, name
        # Sampling must cut the attack down substantially.
        assert sweep["sampling"]["F1"] < 0.75 * sweep["none"]["F1"], name
        # Swapping must not make the attack easier than sampling alone.
        assert sweep["sampling+swapping"]["F1"] <= sweep["sampling"]["F1"] + 0.05, name
