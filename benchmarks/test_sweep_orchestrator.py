"""The sweep orchestrator's three performance contracts, benchmarked.

On a reduced Table-III-style grid (two datasets x three methods):

1. **Fidelity** — the sweep runner produces ``==``-identical metric values
   to the hand-rolled loop the table benchmarks used before migration
   (``create_trainer`` / ``fit`` / ``evaluate`` per experiment).  Not
   approximately equal: the same floats.
2. **Parallel speedup** — with 4 workers the same grid completes at least
   2x faster than the serial pass (only measurable on a multi-core box;
   skipped below 4 cores).
3. **Cache speedup** — a second identical sweep invocation executes zero
   runs and completes at least 10x faster than the first: the warm-pool +
   fingerprint-cache satellite assertion.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

from conftest import TOP_K, baseline_spec, build_dataset, mini_dataset, print_table, ptf_spec
from sweeps import run_id

from repro.experiments import create_trainer
from repro.sweep import RunSpec, SweepSpec, final_metrics, run_sweep

#: Reduced grid: enough runs to amortize pool startup, small enough to
#: train twice (hand-rolled + sweep) in one benchmark session.
GRID_DATASETS = ("movielens-mini", "steam-mini")
GRID_ROUNDS = 4


def _grid_specs() -> Dict[str, "object"]:
    return {
        "fcf": baseline_spec("fcf", rounds=GRID_ROUNDS),
        "ptf-neumf": ptf_spec("neumf", rounds=GRID_ROUNDS, audit_privacy=False),
        "ptf-ngcf": ptf_spec("ngcf", rounds=GRID_ROUNDS, audit_privacy=False),
    }


def grid_sweep() -> SweepSpec:
    runs = [
        RunSpec(run_id(name, method), spec, mini_dataset(name))
        for name in GRID_DATASETS
        for method, spec in _grid_specs().items()
    ]
    return SweepSpec(name="orchestrator-grid", runs=runs)


def hand_rolled_loop() -> Dict[str, Dict[str, float]]:
    """The pre-migration benchmark shape: a serial Python loop, one
    trainer at a time, no sweep machinery anywhere."""
    results: Dict[str, Dict[str, float]] = {}
    for name in GRID_DATASETS:
        dataset = build_dataset(name)
        for method, spec in _grid_specs().items():
            trainer = create_trainer(spec, dataset)
            trainer.fit()
            evaluated = trainer.evaluate(k=TOP_K)
            results[run_id(name, method)] = {
                "Recall@20": evaluated.recall,
                "NDCG@20": evaluated.ndcg,
            }
    return results


def sweep_metrics(outcome) -> Dict[str, Dict[str, float]]:
    metrics = final_metrics(outcome.results)
    return {
        rid: {
            "Recall@20": entry[f"Recall@{entry['k']}"],
            "NDCG@20": entry[f"NDCG@{entry['k']}"],
        }
        for rid, entry in metrics.items()
    }


@pytest.mark.benchmark(group="sweep-orchestrator")
def test_sweep_matches_hand_rolled_loop_exactly(benchmark, tmp_path):
    def both():
        expected = hand_rolled_loop()
        outcome = run_sweep(grid_sweep(), store=tmp_path / "store", workers=1)
        return expected, sweep_metrics(outcome)

    expected, got = benchmark.pedantic(both, rounds=1, iterations=1)
    print_table(
        "Sweep runner vs hand-rolled loop (must be identical)",
        ["Run", "loop R@20", "sweep R@20", "loop N@20", "sweep N@20"],
        [
            [rid, expected[rid]["Recall@20"], got[rid]["Recall@20"],
             expected[rid]["NDCG@20"], got[rid]["NDCG@20"]]
            for rid in sorted(expected)
        ],
    )
    # The acceptance bar: ==, not pytest.approx.
    assert got == expected


def test_second_invocation_completes_from_cache(tmp_path):
    store = tmp_path / "store"
    start = time.perf_counter()
    first = run_sweep(grid_sweep(), store=store, workers=1)
    first_wall = time.perf_counter() - start

    start = time.perf_counter()
    second = run_sweep(grid_sweep(), store=store, workers=1)
    second_wall = time.perf_counter() - start

    assert first.report.executed == len(grid_sweep().runs)
    assert second.report.executed == 0                    # zero training
    assert second.report.cache_hits == first.report.total_runs
    assert sweep_metrics(second) == sweep_metrics(first)  # same table
    # The satellite bar: a warm identical sweep is >= 10x faster.
    assert second_wall * 10 <= first_wall, (
        f"cached sweep took {second_wall:.2f}s vs first {first_wall:.2f}s"
    )
    print(f"\ncache speedup: {first_wall / second_wall:.0f}x "
          f"({first_wall:.1f}s -> {second_wall:.3f}s)")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup is only measurable with >= 4 cores",
)
def test_four_workers_beat_serial_by_2x(tmp_path):
    sweep = grid_sweep()
    start = time.perf_counter()
    serial = run_sweep(sweep, store=tmp_path / "serial", workers=1)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sweep(sweep, store=tmp_path / "parallel", workers=4)
    parallel_wall = time.perf_counter() - start

    # Same floats regardless of worker count...
    assert sweep_metrics(parallel) == sweep_metrics(serial)
    # ... at least 2x faster on 4 workers (the tentpole acceptance bar).
    assert parallel_wall * 2 <= serial_wall, (
        f"parallel {parallel_wall:.1f}s vs serial {serial_wall:.1f}s"
    )
    print(f"\nparallel speedup: {serial_wall / parallel_wall:.1f}x "
          f"({serial_wall:.1f}s -> {parallel_wall:.1f}s on 4 workers)")
