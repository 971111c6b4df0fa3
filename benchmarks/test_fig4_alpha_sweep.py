"""Figure 4 — impact of the dispersed dataset size α.

The paper sweeps α ∈ {10, 30, 50, 70, 90}: too few dispersed items starve
the clients of server knowledge, too many drown out their private data, so
NDCG rises to a peak (α ≈ 30-50) and then falls.  The bench reproduces the
series on the MovieLens miniature and checks that the extremes do not beat
the middle of the sweep.

The five runs execute as one :mod:`repro.sweep` sweep (``sweeps.py``,
shared with ``paper_artifacts.py``), fingerprint-cached per α value.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from sweeps import fig4_series, fig4_sweep

from repro.sweep import final_metrics, run_sweep


def _run(sweep_store):
    outcome = run_sweep(fig4_sweep(), store=sweep_store)
    return fig4_series(final_metrics(outcome.results))


@pytest.mark.benchmark(group="fig4")
def test_fig4_alpha_sweep(benchmark, sweep_store):
    series = benchmark.pedantic(lambda: _run(sweep_store), rounds=1, iterations=1)
    print_table(
        "Figure 4 — dispersed dataset size α (MovieLens mini)",
        ["alpha", "NDCG@20", "Recall@20"],
        series,
    )
    ndcg = {alpha: value for alpha, value, _ in series}
    middle_best = max(ndcg[30], ndcg[50])
    # Shape check: the interior of the sweep is at least as good as the
    # extremes (the paper's inverted-U trend).
    assert middle_best >= ndcg[10] * 0.95
    assert middle_best >= ndcg[90] * 0.95
