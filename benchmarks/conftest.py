"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation section at a reduced scale (miniature statistical twins of the
datasets, fewer global rounds, smaller embeddings) so the whole suite runs
on a single CPU core.  The *shape* of each result — which method wins, by
roughly what factor, where the trends bend — is the reproduction target;
absolute values are recorded against the paper's numbers in
EXPERIMENTS.md.

The harness is built on the unified experiment API: every paradigm is
described by a :class:`repro.ExperimentSpec` (``mini_spec`` applies the
mini-scale defaults) and dispatched through the trainer registry, so the
same helper drives PTF-FedRec, the parameter-transmission baselines and
centralized training.

All experiment work runs exactly once per benchmark via
``benchmark.pedantic(..., rounds=1, iterations=1)``; the printed tables are
the real deliverable, the timing is incidental.

Every table/figure benchmark that trains (Tables III-VIII, Figures 3
and 4) runs its experiments through :mod:`repro.sweep` (see
``benchmarks/sweeps.py``): each experiment is a fingerprint-cached sweep
run, so identical experiments shared between benchmarks train once per
session and independent ones spread over the sweep's worker pool, and
``benchmarks/paper_artifacts.py`` regenerates every artifact from the
same sweep definitions.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from typing import Any, Callable, Iterable, Sequence, Tuple

import pytest

from repro.data import MINI_SPECS, InteractionDataset, generate_dataset
from repro.experiments import ExperimentSpec
from repro.sweep import ArtifactStore, DatasetSpec
from repro.utils import RngFactory

#: Evaluation depth used throughout (the paper reports Recall@20 / NDCG@20).
TOP_K = 20

#: Global seed for every benchmark.
SEED = 2024

#: Mini datasets stand in for the paper's three datasets (see DESIGN.md).
DATASET_NAMES = ("movielens-mini", "steam-mini", "gowalla-mini")

#: Maps the mini dataset names onto the paper's dataset names for display.
PAPER_NAMES = {
    "movielens-mini": "MovieLens-100K",
    "steam-mini": "Steam-200K",
    "gowalla-mini": "Gowalla",
}


def build_dataset(name: str, seed: int = SEED) -> InteractionDataset:
    """Create the miniature statistical twin for one of the paper datasets."""
    spec = MINI_SPECS[name]
    return generate_dataset(spec, rng=RngFactory(seed).spawn(f"dataset-{name}"))


def mini_dataset(name: str, seed: int = SEED) -> DatasetSpec:
    """The sweep-runner recipe for :func:`build_dataset` (same derivation,
    so sweep runs land on the exact datasets the hand-rolled loops used)."""
    return DatasetSpec(source="mini", name=name, seed=seed)


def mini_spec(trainer: str = "ptf", **overrides) -> ExperimentSpec:
    """An :class:`ExperimentSpec` adapted to the miniature datasets.

    The paper's full-scale settings (batch 1024, learning rate 0.001, 20
    rounds) assume ~100k uploaded predictions per round; at mini scale the
    server would only take a handful of optimizer steps, so the benchmarks
    shrink the server batch and raise the learning rate while keeping every
    protocol-level hyper-parameter (α, β, γ, λ, µ, negative ratio) at the
    paper's values.  ``overrides`` are flat field names (``alpha=50``,
    ``dispersal_mode="random"``), as :meth:`ExperimentSpec.from_flat` takes them.

    Clients train on the ``batched`` scheduler: it is bit-identical to
    ``serial`` (``tests/test_scale_identity.py``), faster, and outside
    the sweep fingerprint, so every number is the one a serial run gives.
    """
    defaults = dict(
        rounds=10,
        client_local_epochs=3,
        server_epochs=3,
        client_batch_size=64,
        server_batch_size=128,
        learning_rate=0.01,
        embedding_dim=16,
        client_mlp_layers=(32, 16, 8),
        server_num_layers=3,
        alpha=30,
        k=TOP_K,
        scheduler="batched",
        seed=SEED,
    )
    defaults.update(overrides)
    seed = defaults.pop("seed")
    return ExperimentSpec.from_flat(trainer=trainer, seed=seed, **defaults)


# ----------------------------------------------------------------------
# Spec builders shared by the sweeps
# ----------------------------------------------------------------------
#: Per-model centralized training tweaks at mini scale: NeuMF and NGCF need
#: a little L2 to avoid overfitting the tiny datasets, while LightGCN (no
#: transformation weights) trains longer without weight decay.
_CENTRALIZED_OVERRIDES = {
    "neumf": {"rounds": 30, "l2_weight": 5e-4},
    "ngcf": {"rounds": 30, "l2_weight": 5e-4},
    "lightgcn": {"rounds": 60, "l2_weight": 0.0},
    "mf": {"rounds": 30, "l2_weight": 0.0},
}


def centralized_spec(model_name: str, **overrides) -> ExperimentSpec:
    """Mini-scale centralized training spec for one model architecture."""
    settings = dict(
        rounds=30,
        server_batch_size=256,
        client_mlp_layers=(64, 32, 16),
    )
    settings.update(_CENTRALIZED_OVERRIDES.get(model_name.lower(), {}))
    settings.update(overrides)
    return mini_spec("centralized", server_model=model_name, **settings)


def baseline_spec(name: str, **overrides) -> ExperimentSpec:
    """Mini-scale spec for one parameter-transmission baseline (FCF/FedMF/MetaMF)."""
    settings = dict(client_local_epochs=2, local_learning_rate=0.05)
    settings.update(overrides)
    return mini_spec(name.lower(), **settings)


def ptf_spec(server_model: str, **overrides) -> ExperimentSpec:
    """Mini-scale PTF-FedRec spec with the given hidden server model."""
    return mini_spec("ptf", server_model=server_model, **overrides)


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------
def paired_speedup(reference: Callable[[], Tuple[float, Any]],
                   candidate: Callable[[], Tuple[float, Any]],
                   pairs: int) -> Tuple[float, float, float]:
    """Time two execution paths in ``pairs`` interleaved pairs.

    Each callable runs its path once and returns ``(seconds, output)``;
    every pair's outputs must be ``==``.  Returns the median seconds of
    each side and the median per-pair ratio ``reference / candidate``.
    Timing both sides back to back, equally often, in one process exposes
    them to the same host load, so a loaded host moves both times rather
    than the ratio.
    """
    reference_s, candidate_s, ratios = [], [], []
    for _ in range(pairs):
        ref_seconds, ref_output = reference()
        cand_seconds, cand_output = candidate()
        assert ref_output == cand_output
        reference_s.append(ref_seconds)
        candidate_s.append(cand_seconds)
        ratios.append(ref_seconds / cand_seconds)
    return (statistics.median(reference_s), statistics.median(candidate_s),
            statistics.median(ratios))


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned text table (the benchmark's real output)."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    line = "  ".join(name.ljust(width) for name, width in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


# ----------------------------------------------------------------------
# Sweep-runner infrastructure
# ----------------------------------------------------------------------
def make_sweep_store(tmp_root: str = None) -> ArtifactStore:
    """The artifact store the sweep-backed benchmarks share.

    Defaults to a *fresh per-session* directory: sweep fingerprints cover
    the spec, backend and dataset but not the training code, so a store
    that outlived a code change would serve stale numbers.  Exporting
    ``REPRO_SWEEP_STORE=<dir>`` opts into a persistent store (instant
    re-runs while iterating on benchmark *presentation*, not training
    code) — the same knob ``benchmarks/paper_artifacts.py`` uses.
    """
    persistent = os.environ.get("REPRO_SWEEP_STORE")
    if persistent:
        return ArtifactStore(persistent)
    return ArtifactStore(tmp_root or tempfile.mkdtemp(prefix="repro-sweep-"))


@pytest.fixture(scope="session")
def sweep_store(tmp_path_factory) -> ArtifactStore:
    """Session-scoped sweep cache: benchmarks sharing a run (same
    fingerprint) train it once; ``REPRO_SWEEP_STORE`` makes it persistent."""
    return make_sweep_store(str(tmp_path_factory.mktemp("sweep-artifacts")))
