"""Sweep definitions for the paper's tables and figures.

One module owns the *declarative* description of every multi-experiment
artifact — which experiments run on which datasets and how their results
are read back — so the pytest benchmarks of Tables III-VIII and Figures
3 and 4 and the one-shot regenerator (``benchmarks/paper_artifacts.py``)
execute the exact same runs through :class:`repro.sweep.Sweep` and share
its fingerprint cache: a run two tables share trains once per store.

Every experiment spec here reproduces the hand-rolled loops the benchmarks
used before the sweep runner existed (the spec builders live in
``conftest.py`` and are shared with the remaining direct-style
benchmarks); ``test_sweep_orchestrator.py`` asserts the equivalence stays
``==``-exact.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from conftest import (
    DATASET_NAMES,
    PAPER_NAMES,
    baseline_spec,
    centralized_spec,
    mini_dataset,
    ptf_spec,
)

from repro import RunResult
from repro.sweep import RunSpec, SweepSpec

#: Model line-up of Table III, in the paper's row order.
CENTRALIZED_MODELS = ("neumf", "ngcf", "lightgcn")
BASELINES = ("fcf", "fedmf", "metamf")
PTF_SERVER_MODELS = ("neumf", "ngcf", "lightgcn")

#: Method display names, keyed by the run-id method segment.
METHOD_LABELS = {
    **{f"centralized-{m}": f"Centralized {m.upper()}" for m in CENTRALIZED_MODELS},
    "fcf": "FCF",
    "fedmf": "FedMF",
    "metamf": "MetaMF",
    **{f"ptf-{m}": f"PTF-FedRec({m.upper()})" for m in PTF_SERVER_MODELS},
}

#: Figure 4's sweep over the dispersed dataset size.
ALPHA_VALUES = (10, 30, 50, 70, 90)
ALPHA_ROUNDS = 8


def run_id(dataset: str, method: str) -> str:
    """The ``<dataset>/<method>`` naming every sweep here uses."""
    return f"{dataset}/{method}"


# ----------------------------------------------------------------------
# Table III — recommendation performance of all methods on all datasets
# ----------------------------------------------------------------------
def table3_sweep(datasets: Sequence[str] = DATASET_NAMES) -> SweepSpec:
    """Nine methods per dataset, read back as final ranking metrics."""
    runs: List[RunSpec] = []
    for name in datasets:
        dataset = mini_dataset(name)
        for model in CENTRALIZED_MODELS:
            runs.append(RunSpec(run_id(name, f"centralized-{model}"),
                                centralized_spec(model), dataset))
        for baseline in BASELINES:
            runs.append(RunSpec(run_id(name, baseline),
                                baseline_spec(baseline), dataset))
        for model in PTF_SERVER_MODELS:
            # audit_privacy=False: the hand-rolled loop never audited —
            # the Top Guess Attack is Table V's job, and the audit does
            # not touch the ranking metrics this table reports.
            runs.append(RunSpec(run_id(name, f"ptf-{model}"),
                                ptf_spec(model, audit_privacy=False), dataset))
    return SweepSpec(name="table3", runs=runs)


def table3_results(metrics: Dict[str, Dict[str, float]],
                   datasets: Sequence[str] = DATASET_NAMES) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Reshape :func:`repro.sweep.final_metrics` into the benchmark's nested layout:
    ``{dataset: {method label: {"Recall@20": ..., "NDCG@20": ...}}}``."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in datasets:
        results[name] = {}
        for method, label in METHOD_LABELS.items():
            entry = metrics[run_id(name, method)]
            results[name][label] = {
                "Recall@20": entry[f"Recall@{entry['k']}"],
                "NDCG@20": entry[f"NDCG@{entry['k']}"],
            }
    return results


def table3_rows(results: Dict[str, Dict[str, Dict[str, float]]],
                datasets: Sequence[str] = DATASET_NAMES) -> List[List]:
    """Rows for :func:`conftest.print_table` (method x dataset metrics)."""
    rows = []
    for label in METHOD_LABELS.values():
        row: List = [label]
        for name in datasets:
            metrics = results[name][label]
            row.extend([metrics["Recall@20"], metrics["NDCG@20"]])
        rows.append(row)
    return rows


def table3_header(datasets: Sequence[str] = DATASET_NAMES) -> List[str]:
    header = ["Method"]
    for name in datasets:
        header.extend([f"{PAPER_NAMES[name]} R@20", f"{PAPER_NAMES[name]} N@20"])
    return header


# ----------------------------------------------------------------------
# Table IV — measured per-client per-round communication cost
# ----------------------------------------------------------------------
def table4_sweep(datasets: Sequence[str] = DATASET_NAMES) -> SweepSpec:
    """Short runs of every communicating paradigm, read back as ledger
    totals (the analytic paper-scale half of Table IV needs no training —
    see ``test_table4_communication.py``)."""
    runs: List[RunSpec] = []
    for name in datasets:
        dataset = mini_dataset(name)
        for baseline in BASELINES:
            runs.append(RunSpec(
                run_id(name, baseline),
                baseline_spec(baseline, rounds=2, client_local_epochs=1),
                dataset,
            ))
        runs.append(RunSpec(
            run_id(name, "ptf"),
            ptf_spec("ngcf", rounds=2, client_local_epochs=1, server_epochs=1,
                     audit_privacy=False),
            dataset,
        ))
    return SweepSpec(name="table4", runs=runs)


def table4_costs(results: Dict[str, RunResult],
                 datasets: Sequence[str] = DATASET_NAMES) -> Dict[str, Dict[str, float]]:
    """``{dataset: {method label: KB per client per round}}`` from the runs'
    communication-ledger totals."""
    labels = {"FCF": "fcf", "FedMF": "fedmf", "MetaMF": "metamf", "PTF-FedRec": "ptf"}
    return {
        name: {
            label: results[run_id(name, method)].communication.average_client_round_kilobytes
            for label, method in labels.items()
        }
        for name in datasets
    }


def table4_rows(costs: Dict[str, Dict[str, float]],
                datasets: Sequence[str] = DATASET_NAMES) -> List[List[str]]:
    rows = []
    for name in datasets:
        entry = costs[name]
        rows.append([
            PAPER_NAMES[name],
            f"{entry['FCF']:.1f} KB",
            f"{entry['FedMF']:.1f} KB",
            f"{entry['MetaMF']:.1f} KB",
            f"{entry['PTF-FedRec']:.2f} KB",
            f"{min(entry['FCF'], entry['MetaMF']) / entry['PTF-FedRec']:.0f}x",
        ])
    return rows


# ----------------------------------------------------------------------
# Figure 4 — impact of the dispersed dataset size alpha
# ----------------------------------------------------------------------
def fig4_sweep(dataset: str = "movielens-mini") -> SweepSpec:
    """PTF-FedRec(NGCF) across the paper's alpha grid on one dataset."""
    runs = [
        RunSpec(
            f"alpha={alpha}",
            ptf_spec("ngcf", alpha=alpha, rounds=ALPHA_ROUNDS, audit_privacy=False),
            mini_dataset(dataset),
        )
        for alpha in ALPHA_VALUES
    ]
    return SweepSpec(name="fig4", runs=runs)


def fig4_series(metrics: Dict[str, Dict[str, float]]) -> List[tuple]:
    """The benchmark's ``(alpha, ndcg, recall)`` series from
    :func:`repro.sweep.final_metrics`."""
    series = []
    for alpha in ALPHA_VALUES:
        entry = metrics[f"alpha={alpha}"]
        k = entry["k"]
        series.append((alpha, entry[f"NDCG@{k}"], entry[f"Recall@{k}"]))
    return series


# ----------------------------------------------------------------------
# Tables V and VI, Figure 3 — the Top Guess Attack under each defense
# ----------------------------------------------------------------------
#: Global rounds of the privacy runs (shorter than Table III: the attack
#: is measured on upload structure, which stabilizes after a few rounds).
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

#: Figure 3's sweeps of the privacy hyper-parameters β, γ and λ.
BETA_RANGES = ((0.1, 1.0), (0.3, 1.0), (0.5, 1.0), (0.7, 1.0))
GAMMA_RANGES = ((1.0, 4.0), (2.0, 4.0), (3.0, 4.0), (4.0, 4.0))
LAMBDA_VALUES = (0.05, 0.1, 0.15, 0.2)


def privacy_run(run: str, dataset: str, defense: str, **overrides) -> RunSpec:
    """PTF-FedRec(NGCF) under ``defense``, audited by the Top Guess Attack
    against the final round's uploads."""
    spec = ptf_spec("ngcf", defense=defense, rounds=PRIVACY_ROUNDS,
                    audit_guess_ratio=GUESS_RATIO, **overrides)
    return RunSpec(run, spec, mini_dataset(dataset))


def privacy_metrics(outcome) -> Dict[str, Dict[str, float]]:
    """Per run: attack F1 plus the server model's ranking metrics."""
    return {
        run: {"F1": result.privacy.mean_f1, "NDCG@20": result.final.ndcg,
              "Recall@20": result.final.recall}
        for run, result in outcome.results.items()
    }


def defense_sweep(datasets: Sequence[str] = DATASET_NAMES) -> SweepSpec:
    """Every defense on every dataset: the twelve runs Tables V and VI report."""
    return SweepSpec(
        name="table5",
        runs=[privacy_run(run_id(name, defense), name, defense)
              for name in datasets for defense in DEFENSES],
    )


def defense_results(metrics: Dict[str, Dict[str, float]],
                    datasets: Sequence[str] = DATASET_NAMES
                    ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{dataset: {defense: {"F1", "NDCG@20", "Recall@20"}}}``."""
    return {name: {defense: metrics[run_id(name, defense)] for defense in DEFENSES}
            for name in datasets}


def fig3_sweep(dataset: str = "movielens-mini") -> SweepSpec:
    """Sampling + swapping across β, γ and λ; the runs at the default
    setting repeat Table V's, so a shared store trains them once."""
    def series(name, field, values):
        return [privacy_run(f"{name}={value}", dataset, "sampling+swapping",
                            **{field: value})
                for value in values]

    return SweepSpec(
        name="fig3",
        runs=(series("beta", "beta_range", BETA_RANGES)
              + series("gamma", "gamma_range", GAMMA_RANGES)
              + series("lambda", "swap_rate", LAMBDA_VALUES)),
    )


# ----------------------------------------------------------------------
# Table VII — ablation of the dispersed dataset's construction
# ----------------------------------------------------------------------
ABLATION_ROUNDS = 8

#: Table VII's variants and the dispersal mode each one runs.
DISPERSAL_VARIANTS = {
    "PTF-FedRec": "confidence+hard",
    "-hard": "confidence+random",
    "-confidence": "random+hard",
    "-confidence -hard": "random",
}


def table7_sweep(datasets: Sequence[str] = DATASET_NAMES) -> SweepSpec:
    """PTF-FedRec(NGCF) with each dispersal variant on every dataset."""
    return SweepSpec(
        name="table7",
        runs=[
            RunSpec(run_id(name, label),
                    ptf_spec("ngcf", dispersal_mode=mode, rounds=ABLATION_ROUNDS,
                             audit_privacy=False),
                    mini_dataset(name))
            for name in datasets
            for label, mode in DISPERSAL_VARIANTS.items()
        ],
    )


# ----------------------------------------------------------------------
# Table VIII — every client-model x server-model combination
# ----------------------------------------------------------------------
COMBINATION_MODELS = ("neumf", "ngcf", "lightgcn")
COMBINATION_ROUNDS = 8


def table8_sweep(dataset: str = "movielens-mini") -> SweepSpec:
    """PTF-FedRec for each (client model, server model) pair on one dataset;
    run ids are ``<client>/<server>``."""
    return SweepSpec(
        name="table8",
        runs=[
            RunSpec(f"{client}/{server}",
                    ptf_spec(server, client_model=client, rounds=COMBINATION_ROUNDS,
                             audit_privacy=False),
                    mini_dataset(dataset))
            for client in COMBINATION_MODELS
            for server in COMBINATION_MODELS
        ],
    )
