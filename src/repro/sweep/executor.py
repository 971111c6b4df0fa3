"""Process-pool execution of sweep runs: warm workers, per-run isolation.

The executor owns one persistent :mod:`multiprocessing` pool for the whole
sweep — workers are spawned once and reused across every run, so a
100-run sweep pays process startup (interpreter boot, ``import repro``)
``workers`` times, not 100 times.  The pool initializer pre-imports the
training stack, so even the first task on each worker runs warm.

Per-run state is nevertheless fully isolated, which is what makes results
``==`` to serial execution:

* **Backend** — task payloads carry the *resolved* spec dict (a concrete
  ``backend`` name, pinned by the driver), and the trainer adapter
  activates it around build/fit/evaluate.  Nothing depends on the worker
  process's ambient backend, so the pool is spawn-safe and one sweep may
  mix backends freely.
* **RNG** — every random stream is derived from ``(spec.seed, component
  [, client, round])`` inside :func:`repro.run`; no draw depends on which
  worker executes the run or in what order runs complete.
* **Datasets** — workers rebuild each :class:`~repro.sweep.spec.DatasetSpec`
  deterministically and memoize it per process (the warm pool makes this
  cache effective), so payloads ship recipes, not interaction matrices.

Each completed run is saved into the
:class:`~repro.sweep.store.ArtifactStore` *by the worker, atomically,
before the task returns* — a killed sweep keeps everything finished so
far, and a resume re-executes only the rest.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence

#: Per-worker dataset memo: DatasetSpec.key() -> built dataset.  Module
#: state is per *process*, so each pool worker (and the serial in-process
#: path) keeps its own copy; entries are deterministic, so sharing a key
#: always means sharing identical data.
_DATASET_CACHE: Dict[str, Any] = {}


def _build_dataset(dataset_dict: Dict[str, Any]):
    from repro.sweep.spec import DatasetSpec

    spec = DatasetSpec.from_dict(dataset_dict)
    key = spec.key()
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = spec.build()
    return _DATASET_CACHE[key]


@dataclass(frozen=True)
class RunTask:
    """One unit of pool work: execute a run and store its artifact."""

    run_id: str
    fingerprint: str
    spec: Dict[str, Any]       # resolved ExperimentSpec.to_dict()
    dataset: Dict[str, Any]    # DatasetSpec.to_dict()
    store_root: str


@dataclass(frozen=True)
class TaskOutcome:
    """What one executed task reports back to the driver."""

    run_id: str
    fingerprint: str
    wall_time_seconds: float
    worker: int
    result: Optional[Dict[str, Any]]   # RunResult.to_dict(), None on error
    error: Optional[str] = None


def _warm_worker() -> None:
    """Pool initializer: pay the import cost once per worker, not per task."""
    import repro  # noqa: F401  (the import *is* the warm-up)


def execute_task(task: RunTask) -> TaskOutcome:
    """Run one experiment, save its artifact, report telemetry.

    Runs in a pool worker (or inline for serial sweeps).  Exceptions are
    caught and shipped back as strings — one failing run must not poison
    the pool or abandon the runs already in flight.
    """
    import repro
    from repro.sweep.store import ArtifactStore

    start = time.perf_counter()
    try:
        spec = repro.ExperimentSpec.from_dict(task.spec)
        dataset = _build_dataset(task.dataset)
        result = repro.run(spec, dataset)
        ArtifactStore(task.store_root).save(task.fingerprint, result)
        payload = result.to_dict()
        error = None
    except Exception:
        payload = None
        error = traceback.format_exc()
    return TaskOutcome(
        run_id=task.run_id,
        fingerprint=task.fingerprint,
        wall_time_seconds=time.perf_counter() - start,
        worker=os.getpid(),
        result=payload,
        error=error,
    )


class SweepExecutor:
    """A persistent worker pool executing :class:`RunTask`s.

    ``workers <= 1`` executes inline (no processes) — the reference path,
    used by tests asserting parallel ``==`` serial and by resumable
    subprocess drivers that want deterministic completion order.  Use as a
    context manager; the pool is created on entry and torn down on exit.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = default_worker_count()
        self.workers = max(1, int(workers))
        self._pool = None

    def __enter__(self) -> "SweepExecutor":
        if self.workers > 1:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = context.Pool(self.workers, initializer=_warm_worker)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def map_unordered(self, tasks: Sequence[RunTask]) -> Iterator[TaskOutcome]:
        """Yield task outcomes as they complete (order is not the input order)."""
        if self._pool is None:
            for task in tasks:
                yield execute_task(task)
            return
        yield from self._pool.imap_unordered(execute_task, tasks)


def default_worker_count() -> int:
    """Default sweep parallelism: every core, capped at 8.

    Individual runs already vectorize across a core; past ~8 sweep workers
    the mini-scale runs contend on memory bandwidth rather than parallelize.
    """
    return max(1, min(os.cpu_count() or 1, 8))
