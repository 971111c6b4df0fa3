"""Micro-benchmark — batched client-simulation engine throughput.

One PTF-FedRec round runs local training for every selected client.  The
serial reference path pays a full Python fit loop per client — dozens of
interpreter-level tensor ops per batch per client.  The batched scheduler
(``engine={"scheduler": "batched"}``) stacks the cohort into
``(clients, ...)`` arrays and runs each training step once for everyone,
with bit-identical results.

This bench measures local-training throughput (clients/second) for the
serial and batched schedulers at 50 / 200 / 800 clients, timing the two in
interleaved pairs, and asserts the acceptance bar on the median per-pair
ratio: **>= 5x at 200 clients**.  The configuration purposely
uses a compact on-device model (small catalogue/embedding, the paper's
small client batches): the engine removes *scheduling* overhead, and this
regime — many clients, modest per-client tensors, exactly the setting
PTF-FedRec targets — is where that overhead dominates.  Dense table math
is identical work on both paths and is not what is being compared.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import SEED, paired_speedup, print_table

from repro.core.client import PTFClient
from repro.engine import EngineSpec, create_scheduler
from repro.experiments import ExperimentSpec
from repro.utils import RngFactory, seeded_rng

COHORT_SIZES = (50, 200, 800)
ASSERTED_COHORT = 200
MIN_SPEEDUP = 5.0
#: Interleaved serial/batched timing pairs at the asserted cohort (one
#: pair at the others: their rows are informational, and serial training
#: of 800 clients takes ~15 s).
PAIRS = 5

NUM_ITEMS = 30
POSITIVES_PER_CLIENT = 8


def _client_spec() -> ExperimentSpec:
    return ExperimentSpec.from_flat(
        trainer="ptf",
        seed=SEED,
        client_local_epochs=5,
        client_batch_size=8,
        embedding_dim=8,
        client_mlp_layers=(32, 16, 8),
    )


def _build_clients(num_clients: int, spec: ExperimentSpec):
    rngs = RngFactory(spec.seed)
    rng = seeded_rng(123)
    return {
        user: PTFClient(
            user_id=user,
            num_items=NUM_ITEMS,
            positive_items=np.sort(
                rng.choice(NUM_ITEMS, size=POSITIVES_PER_CLIENT, replace=False)
            ),
            config=spec,
            rngs=rngs,
        )
        for user in range(num_clients)
    }


def _round_seconds(scheduler_name: str, num_clients: int,
                   spec: ExperimentSpec) -> tuple[float, dict]:
    """Wall time and losses of one cohort's local training."""
    clients = _build_clients(num_clients, spec)
    # The 800-client cohort stacks in shards of at most 256 clients.
    engine = create_scheduler(EngineSpec(scheduler=scheduler_name, shard_size=256))
    start = time.perf_counter()
    losses = engine.train_ptf_clients(clients, list(range(num_clients)), 0)
    return time.perf_counter() - start, losses


def test_engine_throughput(benchmark):
    spec = _client_spec()

    # Warm up allocators / code paths once with a small cohort.
    _round_seconds("batched", 16, spec)

    rows = []
    speedups = {}
    for num_clients in COHORT_SIZES:
        # The engine contract: identical losses, not merely close ones
        # (paired_speedup asserts ``==`` on every pair).
        serial_s, batched_s, speedups[num_clients] = paired_speedup(
            lambda: _round_seconds("serial", num_clients, spec),
            lambda: _round_seconds("batched", num_clients, spec),
            pairs=PAIRS if num_clients == ASSERTED_COHORT else 1,
        )
        rows.append([
            num_clients,
            f"{num_clients / serial_s:,.0f} clients/s",
            f"{num_clients / batched_s:,.0f} clients/s",
            f"{speedups[num_clients]:.1f}x",
        ])

    benchmark.pedantic(
        lambda: _round_seconds("batched", ASSERTED_COHORT, spec),
        rounds=1,
        iterations=1,
    )

    print_table(
        "Local-training throughput, serial vs batched scheduler (one round; "
        f"{ASSERTED_COHORT} clients: median of {PAIRS} interleaved pairs)",
        ["#clients", "serial", "batched", "speedup"],
        rows,
    )
    assert speedups[ASSERTED_COHORT] >= MIN_SPEEDUP, (
        f"batched scheduler must be >= {MIN_SPEEDUP}x the per-client loop at "
        f"{ASSERTED_COHORT} clients, measured {speedups[ASSERTED_COHORT]:.1f}x "
        f"(median of {PAIRS} interleaved pairs)"
    )
