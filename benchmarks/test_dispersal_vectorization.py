"""Micro-benchmark — vectorized dispersal candidate construction.

``PTFServer.build_dispersal`` must, for every client every round, gather
the catalogue items the client did *not* just upload.  The seed
implementation walked the whole catalogue in a Python list comprehension
with a set-membership test per item — O(num_items) interpreter work per
client per round, the dominant cost of the dispersal step on realistic
catalogues.  The current implementation scatters the uploaded ids into a
boolean mask and calls ``np.flatnonzero``.

This bench times both constructions on paper-scale catalogues in
interleaved pairs (``conftest.paired_speedup``), prints the speedup
table, and asserts (a) the two produce identical candidate sets in every
pair and (b) the vectorized path is decisively faster at scale, by the
median per-pair ratio.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import paired_speedup, print_table

from repro.utils import seeded_rng

CATALOGUE_SIZES = (1_000, 10_000, 100_000)
UPLOADED_PER_CLIENT = 120  # ~ beta * profile * (1 + gamma) at paper scale
#: Interleaved legacy/vectorized timing pairs per catalogue size.
PAIRS = 20


def _legacy_candidates(num_items: int, uploaded: np.ndarray) -> np.ndarray:
    """The seed implementation: per-item Python loop with a set lookup."""
    excluded = set(int(item) for item in uploaded)
    return np.array(
        [item for item in range(num_items) if item not in excluded], dtype=np.int64
    )


def _vectorized_candidates(num_items: int, uploaded: np.ndarray) -> np.ndarray:
    """The current implementation (mirrors PTFServer.build_dispersal)."""
    available = np.ones(num_items, dtype=bool)
    available[uploaded] = False
    return np.flatnonzero(available).astype(np.int64)


def _timed(fn, *args):
    """One paired_speedup side: a call's seconds and its candidate ids."""
    def run():
        start = time.perf_counter()
        candidates = fn(*args)
        return time.perf_counter() - start, candidates.tolist()
    return run


def test_dispersal_candidate_vectorization(benchmark):
    rng = seeded_rng(2024)
    rows = []
    speedups = {}
    for num_items in CATALOGUE_SIZES:
        uploaded = rng.choice(num_items, size=UPLOADED_PER_CLIENT, replace=False)

        np.testing.assert_array_equal(
            _legacy_candidates(num_items, uploaded),
            _vectorized_candidates(num_items, uploaded),
        )

        legacy, vectorized, speedups[num_items] = paired_speedup(
            _timed(_legacy_candidates, num_items, uploaded),
            _timed(_vectorized_candidates, num_items, uploaded),
            pairs=PAIRS,
        )
        rows.append([
            f"{num_items:,}",
            f"{legacy * 1e3:.3f} ms",
            f"{vectorized * 1e3:.3f} ms",
            f"{speedups[num_items]:.0f}x",
        ])

    benchmark.pedantic(
        _vectorized_candidates,
        args=(CATALOGUE_SIZES[-1],
              rng.choice(CATALOGUE_SIZES[-1], size=UPLOADED_PER_CLIENT, replace=False)),
        rounds=5,
        iterations=1,
    )

    print_table(
        "Dispersal candidate construction (per client, per round; "
        f"median of {PAIRS} interleaved pairs)",
        ["#items", "list comprehension", "boolean mask", "speedup"],
        rows,
    )
    # The vectorized path must win decisively once the catalogue is large;
    # the 3x bar is far below the ~100x typically observed, to keep CI calm.
    assert speedups[100_000] > 3.0
