"""Table VI — cost-effectiveness of the defenses (ΔF1 / ΔNDCG).

For each defense the paper reports how much attack F1 is removed per unit
of NDCG sacrificed, relative to the undefended upload.  Sampling (and
sampling + swapping) should be far more cost-effective than LDP.

Table VI reads the twelve runs of Table V's sweep (``sweeps.py``); with
the session's shared sweep store every one of them is a cache hit.
"""

from __future__ import annotations

import pytest

from conftest import DATASET_NAMES, PAPER_NAMES, print_table
from sweeps import DEFENSE_LABELS, defense_results, defense_sweep, privacy_metrics

from repro.sweep import run_sweep

_EPSILON = 1e-4


def _efficiency(sweep):
    """ΔF1 / ΔNDCG for each defense relative to the undefended run."""
    base = sweep["none"]
    scores = {}
    for defense in ("ldp", "sampling", "sampling+swapping"):
        delta_f1 = base["F1"] - sweep[defense]["F1"]
        delta_ndcg = max(base["NDCG@20"] - sweep[defense]["NDCG@20"], _EPSILON)
        scores[defense] = delta_f1 / delta_ndcg
    return scores


def _run(sweep_store):
    outcome = run_sweep(defense_sweep(), store=sweep_store)
    return defense_results(privacy_metrics(outcome))


@pytest.mark.benchmark(group="table6")
def test_table6_defense_cost_effectiveness(benchmark, sweep_store):
    results = benchmark.pedantic(lambda: _run(sweep_store), rounds=1, iterations=1)
    efficiencies = {name: _efficiency(results[name]) for name in DATASET_NAMES}
    header = ["Defense"] + [PAPER_NAMES[name] for name in DATASET_NAMES]
    rows = []
    for defense in ("ldp", "sampling", "sampling+swapping"):
        rows.append(
            [DEFENSE_LABELS[defense]]
            + [f"{efficiencies[name][defense]:.1f}" for name in DATASET_NAMES]
        )
    print_table("Table VI — ΔF1 / ΔNDCG (higher = cheaper protection)", header, rows)

    # Shape check: on a majority of datasets the sampling-based defenses
    # protect more F1 per unit of NDCG than LDP does.
    wins = sum(
        efficiencies[name]["sampling"] > efficiencies[name]["ldp"] for name in DATASET_NAMES
    )
    assert wins >= 2
