"""Micro-benchmark — batched full-ranking evaluation throughput.

The full-ranking protocol (score *all* items per test user, cut top-K,
average Recall/NDCG) runs every ``evaluation.every`` rounds inside every
training run, so after the engine batched local training and the serving
tier batched queries, the per-user evaluation loop was the last Python
hot loop on the round path.  ``RankingEvaluator.evaluate`` now scores
users in memory-bounded chunks through the shared cohort scorer
(:mod:`repro.eval.scoring`), ranks each chunk with one vectorized
partition/sort and grades the ``(users, K)`` matrix with boolean
relevance tables.

This bench measures the per-user reference path (``batch_size=None``)
against the batched path at 100 / 300 test users, timing the two in
interleaved pairs, and asserts the acceptance bar on the median per-pair
ratio: **>= 5x at 300 users**.  The two paths must also agree ``==`` on
every pair — the batched evaluator is an execution change, not a protocol
change.
"""

from __future__ import annotations

import time

from conftest import SEED, paired_speedup, print_table

from repro.data import debug_dataset
from repro.eval import RankingEvaluator
from repro.models.factory import create_model
from repro.utils import RngFactory

USER_COUNTS = (100, 300)
ASSERTED_USERS = 300
MIN_SPEEDUP = 5.0
#: Interleaved per-user/batched timing pairs per user count.
PAIRS = 5

NUM_USERS = 800
NUM_ITEMS = 2000
EMBEDDING_DIM = 32
TOP_K = 20
BATCH_SIZE = 128


def _build():
    rngs = RngFactory(SEED)
    dataset = debug_dataset(
        rngs.spawn("eval-data"), num_users=NUM_USERS, num_items=NUM_ITEMS,
        num_interactions=16000,
    )
    model = create_model(
        "mf", num_users=NUM_USERS, num_items=NUM_ITEMS,
        embedding_dim=EMBEDDING_DIM, rng=rngs.spawn("eval-model"),
    )
    evaluator = RankingEvaluator(dataset, k=TOP_K)
    return evaluator, model


def _seconds(evaluator, model, max_users: int, batch_size):
    """Wall time and result of one evaluation pass."""
    start = time.perf_counter()
    result = evaluator.evaluate(model, max_users=max_users, batch_size=batch_size)
    return time.perf_counter() - start, result


def test_eval_throughput(benchmark):
    evaluator, model = _build()

    # Warm up both code paths (and check the execution contract: the
    # batched evaluator returns the *same* RankingResult, floats and all).
    warm_users = 32
    assert evaluator.evaluate(
        model, max_users=warm_users, batch_size=BATCH_SIZE
    ) == evaluator.evaluate(model, max_users=warm_users, batch_size=None)

    rows = []
    speedups = {}
    for count in USER_COUNTS:
        serial_s, batched_s, speedups[count] = paired_speedup(
            lambda: _seconds(evaluator, model, count, batch_size=None),
            lambda: _seconds(evaluator, model, count, batch_size=BATCH_SIZE),
            pairs=PAIRS,
        )
        rows.append([
            count,
            f"{count / serial_s:,.0f} users/s",
            f"{count / batched_s:,.0f} users/s",
            f"{speedups[count]:.1f}x",
        ])

    benchmark.pedantic(
        lambda: _seconds(evaluator, model, ASSERTED_USERS, batch_size=BATCH_SIZE),
        rounds=1,
        iterations=1,
    )

    print_table(
        f"Full-ranking evaluation throughput (Recall/NDCG@{TOP_K}), "
        f"per-user loop vs batched evaluator (median of {PAIRS} interleaved pairs)",
        ["#users", "per-user", "batched", "speedup"],
        rows,
    )
    assert speedups[ASSERTED_USERS] >= MIN_SPEEDUP, (
        f"batched evaluation must be >= {MIN_SPEEDUP}x the per-user loop at "
        f"{ASSERTED_USERS} users, measured {speedups[ASSERTED_USERS]:.1f}x "
        f"(median of {PAIRS} interleaved pairs)"
    )
