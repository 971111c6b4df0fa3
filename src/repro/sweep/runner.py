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
3. **Aggregate** — derived stages run in DAG dependency order on the
   collected :class:`~repro.experiments.result.RunResult`s.

The outcome carries per-run results, per-stage values and a
:class:`~repro.sweep.report.SweepReport` (cache hits, wall times,
speedup).  Because run results are ``==``-identical regardless of worker
count or completion order (all randomness is keyed by the spec, never by
execution), a parallel cached sweep is interchangeable with a serial
uncached one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.result import RunResult
from repro.sweep.executor import RunTask, SweepExecutor, default_worker_count
from repro.sweep.report import RunTelemetry, SweepReport
from repro.sweep.spec import ALL_RUNS, StageSpec, SweepSpec
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


# ----------------------------------------------------------------------
# Aggregator registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageContext:
    """What an aggregator sees: its stage's inputs, by name."""

    stage: StageSpec
    results: Mapping[str, RunResult]   # the runs this stage needs
    stages: Mapping[str, Any]          # outputs of needed upstream stages
    options: Mapping[str, Any] = field(default_factory=dict)


Aggregator = Callable[[StageContext], Any]

_AGGREGATORS: Dict[str, Aggregator] = {}


def register_aggregator(name: str, overwrite: bool = False):
    """Decorator registering a named aggregator for JSON-declared stages."""

    def decorate(fn: Aggregator) -> Aggregator:
        if name in _AGGREGATORS and not overwrite:
            raise ValueError(f"aggregator {name!r} is already registered")
        _AGGREGATORS[name] = fn
        return fn

    return decorate


def available_aggregators() -> Tuple[str, ...]:
    """The registered aggregator names, sorted."""
    return tuple(sorted(_AGGREGATORS))


def resolve_aggregator(aggregator: Union[str, Aggregator]) -> Aggregator:
    if callable(aggregator):
        return aggregator
    if aggregator not in _AGGREGATORS:
        raise ValueError(
            f"unknown aggregator {aggregator!r}; registered: {available_aggregators()}"
        )
    return _AGGREGATORS[aggregator]


@register_aggregator("final-metrics")
def _final_metrics(ctx: StageContext) -> Dict[str, Dict[str, Any]]:
    """Per run: the final ranking metrics (plus k and user count)."""
    return {
        run_id: {
            **result.final.as_dict(),
            "k": result.final.k,
            "num_users_evaluated": result.final.num_users_evaluated,
        }
        for run_id, result in ctx.results.items()
    }


@register_aggregator("communication")
def _communication(ctx: StageContext) -> Dict[str, Dict[str, Any]]:
    """Per run: the communication-ledger totals (Table IV's raw numbers)."""
    return {run_id: result.communication.to_dict() for run_id, result in ctx.results.items()}


@register_aggregator("metric-series")
def _metric_series(ctx: StageContext) -> Dict[str, List[float]]:
    """Per run: one logged metric's per-round series (``options.metric``)."""
    metric = ctx.options.get("metric")
    if not metric:
        raise ValueError('the "metric-series" aggregator needs options={"metric": ...}')
    return {run_id: result.metric_series(metric) for run_id, result in ctx.results.items()}


# ----------------------------------------------------------------------
# DAG ordering
# ----------------------------------------------------------------------
def stage_order(spec: SweepSpec) -> List[StageSpec]:
    """Topologically order the stages; reject unknown needs and cycles.

    Runs are the DAG's sources (all available once the execution phase
    finishes), so only stage→stage edges constrain the order.  Kahn's
    algorithm with name-sorted tie-breaking keeps the order deterministic.
    """
    run_ids = {run.id for run in spec.runs}
    stages = {stage.name: stage for stage in spec.stages}
    pending_deps: Dict[str, set] = {}
    for stage in spec.stages:
        deps = set()
        for need in stage.needs:
            if need == ALL_RUNS or need in run_ids:
                continue
            if need == stage.name:
                raise ValueError(f"stage {stage.name!r} depends on itself")
            if need not in stages:
                raise ValueError(
                    f"stage {stage.name!r} needs unknown node {need!r} "
                    f"(not a run id, stage name, or '{ALL_RUNS}')"
                )
            deps.add(need)
        pending_deps[stage.name] = deps

    ordered: List[StageSpec] = []
    satisfied: set = set()
    while pending_deps:
        ready = sorted(
            name for name, deps in pending_deps.items() if deps <= satisfied
        )
        if not ready:
            cycle = sorted(pending_deps)
            raise ValueError(f"stage dependency cycle among {cycle}")
        for name in ready:
            ordered.append(stages[name])
            satisfied.add(name)
            del pending_deps[name]
    return ordered


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Everything one sweep invocation produced."""

    spec: SweepSpec
    results: Dict[str, RunResult]
    stages: Dict[str, Any]
    report: SweepReport

    def __getitem__(self, name: str) -> Any:
        """A stage's value by name, or a run's result by id."""
        if name in self.stages:
            return self.stages[name]
        return self.results[name]


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
        # Validate the stage DAG up front: a cycle or a dangling need
        # should fail before any training is spent.
        self._stage_order = stage_order(spec)

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
        """Execute the sweep: cache-check, fan out, aggregate, report."""
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

        stages = self._run_stages(results)
        report = SweepReport(
            sweep=self.spec.name,
            workers=self.workers,
            wall_time_seconds=time.perf_counter() - start,
            runs=run_records,
        )
        self._log(report.summary())
        return SweepOutcome(spec=self.spec, results=results, stages=stages, report=report)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _run_stages(self, results: Mapping[str, RunResult]) -> Dict[str, Any]:
        outputs: Dict[str, Any] = {}
        for stage in self._stage_order:
            needed_runs: Dict[str, RunResult] = {}
            needed_stages: Dict[str, Any] = {}
            for need in stage.needs:
                if need == ALL_RUNS:
                    needed_runs.update(results)
                elif need in results:
                    needed_runs[need] = results[need]
                else:
                    needed_stages[need] = outputs[need]
            context = StageContext(
                stage=stage,
                results=needed_runs,
                stages=needed_stages,
                options=stage.options,
            )
            outputs[stage.name] = resolve_aggregator(stage.aggregator)(context)
            self._log(f"stage {stage.name!r} done")
        return outputs


def run_sweep(
    spec: Union[SweepSpec, Mapping],
    store: Union[ArtifactStore, str, None] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """One-call convenience: ``Sweep(spec, store, workers).run()``."""
    return Sweep(spec, store=store, workers=workers, progress=progress).run()
