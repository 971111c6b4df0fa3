"""Micro-benchmark — tensor-backend round throughput (numpy vs numpy32).

The ``numpy32`` backend computes in float32 and applies fused in-place
optimizer kernels, halving memory traffic through every hot loop the
batched engine runs.  This bench trains PTF-FedRec end to end (local
training + upload + server training + dispersal, batched scheduler) under
both backends at a serving-sized configuration — 200 clients, a 400-item
catalogue, 64-dim embeddings, a (128, 64, 32) client tower — and asserts
the acceptance bar: **>= 1.5x end-to-end round throughput**.

The two sides run as interleaved pairs (``conftest.paired_speedup``) and
the bar applies to the median per-pair ratio, so host load that slows
one pair slows both of its sides.  Unlike the scheduler benches, the two
sides here are *not* bit-identical: the fast backend trades the float64
reference arithmetic for speed (the metrics stay statistically
equivalent; see tests/test_tensor_backend.py), so each pair compares no
output.  The measured speedup lands in the benchmark JSON artifact via
``extra_info`` so CI tracks it across commits.
"""

from __future__ import annotations

import time

from conftest import paired_speedup, print_table

from repro.data import debug_dataset
from repro.experiments import ExperimentSpec
from repro.experiments.registry import get_trainer
from repro.utils import RngFactory

NUM_USERS = 200
NUM_ITEMS = 400
EMBEDDING_DIM = 64
ROUNDS = 2
MIN_SPEEDUP = 1.5
#: Interleaved numpy/numpy32 timing pairs behind the asserted median ratio.
PAIRS = 3


def _spec(backend: str, rounds: int = ROUNDS) -> ExperimentSpec:
    return ExperimentSpec.from_flat(
        trainer="ptf",
        seed=9,
        backend=backend,
        rounds=rounds,
        embedding_dim=EMBEDDING_DIM,
        client_mlp_layers=(128, 64, 32),
        client_local_epochs=3,
        alpha=20,
        scheduler="batched",
    )


def _dataset(num_users: int = NUM_USERS):
    return debug_dataset(
        RngFactory(7).spawn("backend-bench"),
        num_users=num_users,
        num_items=NUM_ITEMS,
        num_interactions=num_users * 12,
    )


def _fit_seconds(backend: str, num_users: int = NUM_USERS,
                 rounds: int = ROUNDS) -> float:
    adapter = get_trainer("ptf")(_spec(backend, rounds), _dataset(num_users))
    start = time.perf_counter()
    adapter.fit()
    return time.perf_counter() - start


def _timed_fit(backend: str):
    """One paired_speedup side: the fit's seconds, and ``None`` as its
    output (the backends differ in their last bits, so no output is
    compared)."""
    return lambda: (_fit_seconds(backend), None)


def test_backend_throughput(benchmark):
    # Warm up allocators / BLAS threads once with a small run.
    _fit_seconds("numpy32", num_users=30, rounds=1)

    reference_s, fast_s, speedup = paired_speedup(
        _timed_fit("numpy"), _timed_fit("numpy32"), pairs=PAIRS
    )

    benchmark.extra_info["reference_seconds"] = round(reference_s, 3)
    benchmark.extra_info["fast_seconds"] = round(fast_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.pedantic(
        lambda: _fit_seconds("numpy32", num_users=60, rounds=1),
        rounds=1,
        iterations=1,
    )

    per_round = ROUNDS
    print_table(
        "End-to-end PTF-FedRec round throughput by tensor backend "
        f"({NUM_USERS} clients, {NUM_ITEMS} items, dim {EMBEDDING_DIM}; "
        f"median of {PAIRS} interleaved pairs)",
        ["backend", "dtype", "seconds/round", "rounds/s", "speedup"],
        [
            ["numpy", "float64", f"{reference_s / per_round:.2f}",
             f"{per_round / reference_s:.2f}", "1.0x"],
            ["numpy32", "float32", f"{fast_s / per_round:.2f}",
             f"{per_round / fast_s:.2f}", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"numpy32 backend must deliver >= {MIN_SPEEDUP}x end-to-end round "
        f"throughput over the float64 reference, measured {speedup:.2f}x "
        f"(median of {PAIRS} interleaved pairs)"
    )
