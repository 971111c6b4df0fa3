"""Peak-memory benchmark for the sparse/sharded execution path.

The bounded-memory claim behind ``payload="sparse"`` + ``shard_size``:
a training round's transient memory is proportional to the *shard*, not
the cohort, so scaling the federation from thousands to tens of thousands
of clients leaves the peak resident set essentially flat (the only
per-client state that remains is the private user-embedding row, a few
hundred bytes each).

Two measurements back this up:

* ``test_peak_rss_flat_across_cohort_sizes`` runs a full federated round
  at 2,500 and at 10,000 clients in *fresh subprocesses* (so each
  measurement sees a clean interpreter) and compares their
  ``ru_maxrss``.  It also writes the memory telemetry as JSON — the CI
  ``scale-smoke`` job uploads that file as a workflow artifact (set
  ``SCALE_MEMORY_JSON`` to choose the path).
* ``test_sharding_bounds_transient_allocations`` uses ``tracemalloc``
  in-process to show the sharded round's allocation peak is a small
  fraction of the whole-cohort round's on the same federation.

The module is also runnable directly, printing one cohort's telemetry::

    PYTHONPATH=src python benchmarks/test_scale_memory.py 10000
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from repro.data import debug_dataset
from repro.experiments import ExperimentSpec
from repro.federated import FCF
from repro.utils import RngFactory

SEED = 2024
NUM_ITEMS = 400
EMBEDDING_DIM = 16
SHARD_SIZE = 256

#: Same convention as the test suite and scenario_smoke.py.
BACKEND = os.environ.get("REPRO_BACKEND", "numpy")

#: Cohort sizes for the flat-envelope comparison.  The upper size is the
#: acceptance floor: one real federated round at >= 10k clients.
COHORT_SIZES = (2_500, 10_000)

#: Allowed peak-RSS growth over a 4x client increase.  The interpreter
#: baseline dominates both runs; per-client state is ~KBs, so anything
#: close to linear growth (4.0) means the cohort leaked into the round.
MAX_RSS_RATIO = 1.5


def _scale_config(shard_size: int = SHARD_SIZE,
                  embedding_dim: int = EMBEDDING_DIM) -> ExperimentSpec:
    return ExperimentSpec.from_flat(
        trainer="fcf",
        seed=SEED,
        backend=BACKEND,
        rounds=1,
        client_local_epochs=1,
        embedding_dim=embedding_dim,
        scheduler="batched",
        payload="sparse",
        shard_size=shard_size,
    )


def _scale_dataset(num_clients: int):
    return debug_dataset(
        RngFactory(SEED).spawn("scale-memory"),
        num_users=num_clients,
        num_items=NUM_ITEMS,
        num_interactions=3 * num_clients,
    )


def run_cohort(num_clients: int) -> dict:
    """One sparse+sharded federated round; returns this process's telemetry.

    Meant to run in a fresh interpreter: ``ru_maxrss`` is a high-water
    mark for the whole process lifetime, so a reused interpreter would
    report whatever earlier work peaked at.
    """
    dataset = _scale_dataset(num_clients)
    driver = FCF(dataset, _scale_config())
    started = time.perf_counter()
    driver.fit()
    elapsed = time.perf_counter() - started
    upload_bytes = sum(
        record.num_bytes
        for record in driver.ledger.records
        if record.direction == "upload"
    )
    return {
        "num_clients": num_clients,
        "num_items": NUM_ITEMS,
        "shard_size": SHARD_SIZE,
        "backend": BACKEND,
        # Linux reports ru_maxrss in KiB (macOS: bytes; CI runs Linux).
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "round_seconds": round(elapsed, 3),
        "upload_bytes": upload_bytes,
        "upload_bytes_per_client": round(upload_bytes / num_clients, 1),
    }


def _run_cohort_subprocess(num_clients: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    completed = subprocess.run(
        [sys.executable, __file__, str(num_clients)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=900,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_peak_rss_flat_across_cohort_sizes():
    """A 4x larger cohort must not move peak RSS by more than 50%."""
    runs = [_run_cohort_subprocess(size) for size in COHORT_SIZES]
    small, large = runs[0], runs[-1]
    ratio = large["peak_rss_kb"] / small["peak_rss_kb"]
    telemetry = {
        "backend": BACKEND,
        "scheduler": "batched",
        "payload": "sparse",
        "shard_size": SHARD_SIZE,
        "max_rss_ratio_allowed": MAX_RSS_RATIO,
        "rss_ratio": round(ratio, 3),
        "runs": runs,
    }
    artifact = os.environ.get("SCALE_MEMORY_JSON")
    if artifact:
        Path(artifact).write_text(json.dumps(telemetry, indent=2) + "\n")
    print(json.dumps(telemetry, indent=2))
    assert large["num_clients"] >= 10_000
    assert ratio <= MAX_RSS_RATIO, (
        f"peak RSS grew {ratio:.2f}x from {small['num_clients']} to "
        f"{large['num_clients']} clients (limit {MAX_RSS_RATIO}x): "
        f"{small['peak_rss_kb']} -> {large['peak_rss_kb']} KiB"
    )


def _allocation_peak(shard_size: int, dataset) -> int:
    driver = FCF(dataset, _scale_config(shard_size, embedding_dim=64))
    tracemalloc.start()
    try:
        driver.fit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sharding_bounds_transient_allocations():
    """Sharded rounds allocate a small fraction of whole-cohort rounds.

    The batched scheduler stacks one model replica (parameters, gradients
    and optimizer state) per client in a group; ``shard_size`` caps the
    replica count, so the allocation peak shrinks toward the fixed
    dataset/model baseline.  Unsharded runs are already bounded by the
    largest plan-shape group (a few hundred clients here), so a small
    shard is asserted loosely: at least 3x below the whole-cohort peak.
    """
    num_clients = 2_000
    dataset = debug_dataset(
        RngFactory(SEED).spawn("scale-alloc"),
        num_users=num_clients,
        num_items=300,
        num_interactions=3 * num_clients,
    )
    whole_cohort = _allocation_peak(0, dataset)
    sharded = _allocation_peak(16, dataset)
    assert sharded * 3 < whole_cohort, (
        f"sharded peak {sharded / 1e6:.1f}MB vs "
        f"whole-cohort peak {whole_cohort / 1e6:.1f}MB"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <num_clients>")
    print(json.dumps(run_cohort(int(sys.argv[1]))))
