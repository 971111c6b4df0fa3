"""Figure 3 — impact of the privacy hyper-parameters β, γ and λ.

The paper sweeps, per dataset: the lower end of the β sampling range (more
positives uploaded → better utility, weaker privacy), the lower end of the
γ range (more negatives, more deterministic ratio → attack recovers), and
the swap rate λ (more swapping → both attack and utility drop).  The bench
runs the sweeps on the MovieLens miniature (the paper's Fig. 3a); the same
series can be produced for the other datasets by passing another dataset
to ``sweeps.fig3_sweep``.  The twelve runs execute as one :mod:`repro.sweep`
sweep; the three at the default β, γ and λ repeat Table V's sampling +
swapping run, so the session's shared store trains that one once.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from sweeps import (
    BETA_RANGES,
    GAMMA_RANGES,
    GUESS_RATIO,
    LAMBDA_VALUES,
    fig3_sweep,
    privacy_metrics,
)

from repro.sweep import run_sweep


def _run(sweep_store):
    metrics = privacy_metrics(run_sweep(fig3_sweep(), store=sweep_store))

    def series(name, values, label):
        return [(label(value), metrics[f"{name}={value}"]["NDCG@20"],
                 metrics[f"{name}={value}"]["F1"])
                for value in values]

    return (
        series("beta", BETA_RANGES, lambda r: f"[{r[0]:.1f},{r[1]:.0f}]"),
        series("gamma", GAMMA_RANGES, lambda r: f"[{r[0]:.0f},{r[1]:.0f}]"),
        series("lambda", LAMBDA_VALUES, lambda rate: f"{rate:.2f}"),
    )


@pytest.mark.benchmark(group="fig3")
def test_fig3_privacy_hyperparameters(benchmark, sweep_store):
    beta_series, gamma_series, lambda_series = benchmark.pedantic(
        lambda: _run(sweep_store), rounds=1, iterations=1
    )
    header = ["Setting", "NDCG@20", f"Attack F1 (guess={GUESS_RATIO})"]
    print_table("Figure 3 — sweep of β sampling range (MovieLens mini)", header, beta_series)
    print_table("Figure 3 — sweep of γ sampling range (MovieLens mini)", header, gamma_series)
    print_table("Figure 3 — sweep of swap rate λ (MovieLens mini)", header, lambda_series)

    # Shape checks from the paper (the β trend is scale-sensitive at mini
    # size — see EXPERIMENTS.md — so only the series is recorded for it):
    # (1) a deterministic positive/negative ratio (γ fixed at 4) helps the attack,
    assert gamma_series[-1][2] > gamma_series[0][2]
    # (2) more swapping weakens the attack.
    assert lambda_series[-1][2] < lambda_series[0][2] + 0.02
    # (3) every configuration stays a valid probability/F1 pair.
    for series in (beta_series, gamma_series, lambda_series):
        for _, ndcg, f1 in series:
            assert 0.0 <= ndcg <= 1.0 and 0.0 <= f1 <= 1.0
