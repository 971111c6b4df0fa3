"""The sweep orchestrator: fingerprint-cached, parallel, resumable.

:class:`Sweep` executes a :class:`~repro.sweep.spec.SweepSpec` against an
:class:`~repro.sweep.store.ArtifactStore`:

1. **Fingerprint** — each run's
   :meth:`~repro.experiments.spec.ExperimentSpec.fingerprint` is computed
   over its spec, backend and dataset SHA-256.  Runs whose fingerprint
   already has a completed artifact are *cache hits* and never execute;
   identical runs within one sweep dedupe to a single execution.
2. **Execute** — the remaining runs fan out across a persistent worker
   pool (:class:`~repro.sweep.executor.SweepExecutor`); every completed
   run is stored atomically before its task returns, so a killed sweep
   resumes for free — re-invoking it executes exactly the missing runs.

The outcome carries each run's :class:`~repro.experiments.result.RunResult`
by run id and a :class:`~repro.sweep.report.SweepReport` (cache hits, wall
times, speedup).  Combining results is plain Python over
``outcome.results``; :func:`final_metrics` gives the per-run final ranking
metrics the paper tables read.  Because run results are ``==``-identical
regardless of worker count or completion order (all randomness is keyed by
the spec, never by execution), a parallel cached sweep is interchangeable
with a serial uncached one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.experiments.result import RunResult
from repro.sweep.executor import RunTask, SweepExecutor, default_worker_count
from repro.sweep.report import RunTelemetry, SweepReport
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ArtifactStore


class SweepError(RuntimeError):
    """One or more sweep runs failed; carries every failure, not just the first."""

    def __init__(self, failures: Mapping[str, str]):
        self.failures = dict(failures)
        lines = "\n\n".join(
            f"--- run {run_id!r} ---\n{error}" for run_id, error in self.failures.items()
        )
        super().__init__(
            f"{len(self.failures)} sweep run(s) failed "
            f"(completed runs are cached and will not re-execute on retry):\n{lines}"
        )


def final_metrics(results: Mapping[str, RunResult]) -> Dict[str, Dict[str, Any]]:
    """Per run: the final ranking metrics, plus ``k`` and the user count."""
    return {
        run_id: {
            **result.final.as_dict(),
            "k": result.final.k,
            "num_users_evaluated": result.final.num_users_evaluated,
        }
        for run_id, result in results.items()
    }


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Everything one sweep invocation produced."""

    spec: SweepSpec
    results: Dict[str, RunResult]
    report: SweepReport


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
class Sweep:
    """Execute one :class:`SweepSpec` against an artifact store."""

    def __init__(
        self,
        spec: Union[SweepSpec, Mapping],
        store: Union[ArtifactStore, str, None] = None,
        workers: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if not isinstance(spec, SweepSpec):
            spec = SweepSpec.from_dict(spec)
        self.spec = spec
        if store is None:
            store = ArtifactStore(f"sweep-artifacts-{spec.name}")
        elif not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.workers = default_worker_count() if workers is None else max(1, int(workers))
        self._progress = progress

    def _log(self, message: str) -> None:
        if self._progress is not None:
            self._progress(f"[{self.spec.name}] {message}")

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprints(self) -> Dict[str, str]:
        """Run id -> artifact fingerprint (spec + backend + dataset SHA-256).

        Each distinct dataset recipe is built once, here in the driver, to
        take its content hash; workers rebuild datasets themselves from
        the recipe (cached per worker), so nothing heavy ships.
        """
        from repro.artifacts.checkpoint import dataset_fingerprint

        dataset_hashes: Dict[str, str] = {}
        mapping: Dict[str, str] = {}
        for run in self.spec.runs:
            key = run.dataset.key()
            if key not in dataset_hashes:
                dataset_hashes[key] = dataset_fingerprint(run.dataset.build())
            mapping[run.id] = run.experiment.fingerprint(dataset_hashes[key])
        return mapping

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SweepOutcome:
        """Execute the sweep: cache-check, fan out, report."""
        start = time.perf_counter()
        fingerprints = self.fingerprints()

        # Cache check + in-sweep dedup: one execution per distinct
        # fingerprint, shared by every run id that maps to it.
        cached: Dict[str, RunResult] = {}
        pending: Dict[str, RunTask] = {}
        telemetry: Dict[str, RunTelemetry] = {}
        for run in self.spec.runs:
            fingerprint = fingerprints[run.id]
            if fingerprint in cached or fingerprint in pending:
                continue
            stored = self.store.load(fingerprint)
            if stored is not None:
                cached[fingerprint] = stored
            else:
                pending[fingerprint] = RunTask(
                    run_id=run.id,
                    fingerprint=fingerprint,
                    spec=run.experiment.to_dict(),
                    dataset=run.dataset.to_dict(),
                    store_root=str(self.store.root),
                )
        self._log(
            f"{len(self.spec.runs)} runs: {len(pending)} to execute, "
            f"{len(self.spec.runs) - len(pending)} cached "
            f"({self.workers} workers)"
        )

        by_fingerprint: Dict[str, RunResult] = dict(cached)
        failures: Dict[str, str] = {}
        if pending:
            done = 0
            with SweepExecutor(self.workers) as executor:
                for outcome in executor.map_unordered(list(pending.values())):
                    done += 1
                    if outcome.error is not None:
                        failures[outcome.run_id] = outcome.error
                        self._log(f"({done}/{len(pending)}) {outcome.run_id} FAILED")
                        continue
                    by_fingerprint[outcome.fingerprint] = RunResult.from_dict(outcome.result)
                    telemetry[outcome.fingerprint] = RunTelemetry(
                        run_id=outcome.run_id,
                        fingerprint=outcome.fingerprint,
                        cached=False,
                        wall_time_seconds=outcome.wall_time_seconds,
                        trainer=by_fingerprint[outcome.fingerprint].trainer,
                        backend=by_fingerprint[outcome.fingerprint].spec.backend,
                        worker=outcome.worker,
                    )
                    self._log(
                        f"({done}/{len(pending)}) {outcome.run_id} "
                        f"executed in {outcome.wall_time_seconds:.1f}s"
                    )
        if failures:
            raise SweepError(failures)

        results: Dict[str, RunResult] = {}
        run_records: List[RunTelemetry] = []
        for run in self.spec.runs:
            fingerprint = fingerprints[run.id]
            result = by_fingerprint[fingerprint]
            results[run.id] = result
            executed = telemetry.get(fingerprint)
            if executed is not None and executed.run_id == run.id:
                run_records.append(executed)
            else:
                # Cache hit (stored artifact, or deduped onto another run
                # id this sweep executed): record the training time the
                # artifact carries — the cost the cache avoided.
                run_records.append(RunTelemetry(
                    run_id=run.id,
                    fingerprint=fingerprint,
                    cached=True,
                    wall_time_seconds=result.duration_seconds,
                    trainer=result.trainer,
                    backend=result.spec.backend,
                ))

        report = SweepReport(
            sweep=self.spec.name,
            workers=self.workers,
            wall_time_seconds=time.perf_counter() - start,
            runs=run_records,
        )
        self._log(report.summary())
        return SweepOutcome(spec=self.spec, results=results, report=report)


def run_sweep(
    spec: Union[SweepSpec, Mapping],
    store: Union[ArtifactStore, str, None] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """One-call convenience: ``Sweep(spec, store, workers).run()``."""
    return Sweep(spec, store=store, workers=workers, progress=progress).run()
