"""Run the benchmark's smoke tests after every other test of the session.

The repository's ``pytest`` run collects ``bench/test_bench.py`` before
``benchmarks/``, whose throughput tests assert speedups measured in the
test process.  The smoke tests spend half a minute of CPU there first,
running every workload with its threads, forked sweep workers and
checkpoints, and on a small host that is enough to tip a speedup that
sits near its bar.  Moving the items under ``bench/`` to the end gives
every other test the process it would have without the benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    ours = [HERE in Path(item.path).resolve().parents for item in items]
    items[:] = ([item for item, mine in zip(items, ours) if not mine]
                + [item for item, mine in zip(items, ours) if mine])
