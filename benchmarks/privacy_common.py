"""Shared runner for the privacy experiments (Tables V, VI and Figure 3).

Each privacy experiment trains PTF-FedRec(NGCF) with a particular defense
configuration, evaluates NDCG@20 with the server model, and runs the Top
Guess Attack (guess ratio 0.2, matching the 1:4 negative-sampling prior)
against the final round's uploads.

Table V and Table VI report the same twelve experiments, and Figure 3's
points at the default β, γ and λ repeat Table V's sampling + swapping run,
so results are kept per (dataset, spec) and each distinct experiment
trains once per session.  Training is seeded, so a kept result is the one
a fresh run would produce.
"""

from __future__ import annotations

from typing import Dict, Tuple

from conftest import TOP_K, build_dataset, mini_ptf_config

from repro.core import PTFFedRec

#: Number of global rounds for the privacy sweeps (shorter than Table III
#: because the attack is measured on upload structure, which stabilizes
#: after a few rounds).
PRIVACY_ROUNDS = 6

#: Attack guess ratio: the server assumes the standard 1:4 sampling prior.
GUESS_RATIO = 0.2

DEFENSES = ("none", "ldp", "sampling", "sampling+swapping")
DEFENSE_LABELS = {
    "none": "No Defense",
    "ldp": "LDP",
    "sampling": "Sampling",
    "sampling+swapping": "Sampling + Swapping",
}

#: Finished experiments keyed by (dataset name, canonical spec JSON).
_RESULTS: Dict[Tuple[str, str], Dict[str, float]] = {}


def run_privacy_experiment(dataset_name: str, defense: str, **config_overrides) -> Dict[str, float]:
    """Train PTF-FedRec(NGCF) under ``defense`` and report attack F1 + NDCG."""
    config = mini_ptf_config(
        server_model="ngcf",
        defense=defense,
        rounds=PRIVACY_ROUNDS,
        **config_overrides,
    )
    key = (dataset_name, config.to_json())
    if key not in _RESULTS:
        system = PTFFedRec(build_dataset(dataset_name), config)
        system.fit()
        ranking = system.evaluate(k=TOP_K)
        attack = system.audit_privacy(guess_ratio=GUESS_RATIO)
        _RESULTS[key] = {"F1": attack.mean_f1, "NDCG@20": ranking.ndcg,
                         "Recall@20": ranking.recall}
    return dict(_RESULTS[key])


def defense_sweep(dataset_name: str) -> Dict[str, Dict[str, float]]:
    """Run every defense on one dataset."""
    return {defense: run_privacy_experiment(dataset_name, defense) for defense in DEFENSES}
