"""Table VIII — NDCG@20 for every client-model x server-model combination.

Paper observations: (1) stronger server models help regardless of the
client model (horizontal comparison), and (2) the simplest client model
(NeuMF) is the best choice because each client has too little data for a
graph model over its one-hop ego graph (vertical comparison).  The paper
reports MovieLens-100K; the bench uses its miniature twin.

The nine runs execute as one :mod:`repro.sweep` sweep (``sweeps.py``).
"""

from __future__ import annotations

import pytest

from conftest import print_table
from sweeps import COMBINATION_MODELS, table8_sweep

from repro.sweep import final_metrics, run_sweep

CLIENT_MODELS = SERVER_MODELS = COMBINATION_MODELS


def _run(sweep_store):
    metrics = final_metrics(run_sweep(table8_sweep(), store=sweep_store).results)
    return {
        (client_model, server_model): metrics[f"{client_model}/{server_model}"]["NDCG@20"]
        for client_model in CLIENT_MODELS
        for server_model in SERVER_MODELS
    }


@pytest.mark.benchmark(group="table8")
def test_table8_model_combinations(benchmark, sweep_store):
    grid = benchmark.pedantic(lambda: _run(sweep_store), rounds=1, iterations=1)
    header = ["Client \\ Server"] + [name.upper() for name in SERVER_MODELS]
    rows = []
    for client_model in CLIENT_MODELS:
        rows.append(
            [client_model.upper()]
            + [grid[(client_model, server_model)] for server_model in SERVER_MODELS]
        )
    print_table(
        "Table VIII — client x server model combinations (MovieLens mini, NDCG@20)",
        header,
        rows,
    )

    # Shape check: with the standard NeuMF client, a graph-based server is
    # at least as good as a NeuMF server (the paper's horizontal finding).
    neumf_client = {server: grid[("neumf", server)] for server in SERVER_MODELS}
    assert max(neumf_client["ngcf"], neumf_client["lightgcn"]) >= 0.95 * neumf_client["neumf"]
