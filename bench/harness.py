"""Run one workload: repeated set-ups, the measured run, the traced rerun.

End-to-end metrics always come from an untraced run.  With ``trace`` on,
the workload is set up again under a :class:`~bench.tracing.Tracer` and
replays the same operations; its results must equal the untraced ones,
and its spans give the per-layer metrics.  Metric names and units are
read from ``BENCHMARK.json``, the one list of what the benchmark reports.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from bench.tracing import Tracer
from bench.workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least the first count, more while their total stays
#: under the time, so that cheap set-ups still give a steady median.
SETUP_REPEATS, SETUP_BUDGET_S, SETUP_MAX_REPEATS = 3, 1.0, 25


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and the metrics every run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Where the tracer hooks in
# ----------------------------------------------------------------------
def _checkpoint_bytes(args, kwargs, path) -> Dict[str, float]:
    return {"artifacts.save_checkpoint.bytes":
            sum(entry.stat().st_size for entry in Path(path).iterdir())}


def _ledger_bytes(args, kwargs, result) -> Dict[str, float]:
    direction = args[3] if len(args) > 3 else kwargs["direction"]
    num_bytes = args[4] if len(args) > 4 else kwargs["num_bytes"]
    return {f"federated.{direction}.bytes": num_bytes}


def layer_targets():
    """``(owner, attribute, span name, counter)`` for every traced boundary.

    Each attribute is the one its callers look the function up by: module
    globals for functions, the defining class for methods (a subclass
    override that calls ``super()`` nests into one span).
    """
    from repro.core.protocol import PTFFedRec
    from repro.core.server import PTFServer
    from repro.engine.schedulers import BatchedScheduler, Scheduler
    from repro.eval.ranking import RankingEvaluator
    from repro.federated.base import ParameterTransmissionFedRec
    from repro.federated.communication import CommunicationLedger
    from repro.scenario.engine import ScenarioEngine
    from repro.serve.recommender import Recommender
    from repro.sweep.runner import Sweep
    from repro.sweep.store import ArtifactStore

    def clients(args, kwargs, result):
        return {"engine.clients": len(args[2])}

    engine_counts = {
        "train_ptf_clients": clients,
        "train_fedavg_clients": clients,
        "build_ptf_uploads": None,
        "build_ptf_dispersals": lambda a, k, result: {
            "core.dispersal.records": sum(d.num_records for d in result)},
    }
    targets = [
        (cls, attr, f"engine.{attr}", count)
        for cls in (Scheduler, BatchedScheduler)
        for attr, count in engine_counts.items() if attr in cls.__dict__
    ]
    return targets + [
        ("repro.data.synthetic", "generate_dataset", "data.generate_dataset", None),
        ("repro.experiments.registry", "create_trainer", "experiments.create_trainer", None),
        (PTFFedRec, "run_round", "core.PTFFedRec.run_round", None),
        (PTFServer, "train_on_uploads", "core.PTFServer.train_on_uploads",
         lambda a, k, r: {"core.upload.records": sum(u.num_records for u in a[1])}),
        (ParameterTransmissionFedRec, "run_round", "federated.run_round", None),
        (CommunicationLedger, "record", None, _ledger_bytes),
        (ScenarioEngine, "plan_round", "scenario.plan_round",
         lambda a, k, plan: {"scenario.dropped": len(plan.dropped) + len(plan.lost)}),
        (RankingEvaluator, "evaluate", "eval.evaluate",
         lambda a, k, result: {"eval.users": result.num_users_evaluated}),
        ("repro.artifacts.checkpoint", "save_checkpoint", "artifacts.save_checkpoint",
         _checkpoint_bytes),
        ("repro.artifacts.callbacks", "save_checkpoint", "artifacts.save_checkpoint",
         _checkpoint_bytes),
        ("repro.artifacts", "load_checkpoint", "artifacts.load_checkpoint", None),
        (Recommender, "recommend", "serve.recommend",
         lambda a, k, r: {"serve.requests": int(np.size(a[1]))}),
        (Sweep, "run", "sweep.run", None),
        (Sweep, "fingerprints", "sweep.fingerprints", None),
        (ArtifactStore, "load", "sweep.store.load", None),
    ]


def layer_values(tracer: Tracer, wall: float, traced: Outcome,
                 untraced: Outcome) -> Dict[str, float]:
    """Every per-layer number one traced run yields, keyed by metric name.

    Busy and self times are shares of the traced run's wall time (set-up
    included), so a layer that a workload never enters reads 0.
    """
    busy, own, calls = tracer.busy_and_self()
    values: Dict[str, float] = {}
    for name in busy:
        values[f"{name}.pct"] = 100.0 * busy[name] / wall
        values[f"{name}.self_pct"] = 100.0 * own[name] / wall
    values.update(tracer.counters)
    values.update(traced.layer)
    values["serve.recommend.calls"] = calls.get("serve.recommend", 0)
    values["serve.batch.mean"] = (tracer.counters["serve.requests"]
                                  / max(calls.get("serve.recommend", 0), 1))
    values["serve.queue_wait.pct"] = _queue_wait_pct(tracer, traced)
    values["trace.overhead_pct"] = 100.0 * (traced.metrics["op_p50_ms"]
                                            / untraced.metrics["op_p50_ms"] - 1.0)
    return values


def _queue_wait_pct(tracer: Tracer, traced: Outcome) -> float:
    """Median share of a steady request's latency spent before its tick's
    scoring: latency minus the service time of the tick that answered it."""
    ticks = tracer.durations("serve.recommend")
    if not ticks or "completed" not in traced.raw:
        return 0.0
    starts, ends = (np.asarray(column) for column in zip(*ticks))
    tick = np.searchsorted(ends, traced.raw["completed"], side="right") - 1
    service_ms = 1000.0 * (ends[tick] - starts[tick])
    latency = traced.raw["latency_ms"]
    return 100.0 * float(np.median((latency - service_ms) / latency))


# ----------------------------------------------------------------------
# One workload, end to end
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, trace_dir: Path, smoke: bool = False) -> Dict[str, Any]:
    """Measure one workload; returns its full report (see ``bench/README.md``).

    ``workdir`` holds the run's scratch files (checkpoints, sweep stores);
    the traced run's spans go to ``trace_dir/trace-<workload>.jsonl``.
    """
    workload = WORKLOADS[name](seed, workdir, smoke=smoke)
    setup_s: List[float] = []
    while len(setup_s) < SETUP_REPEATS or (
            sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX_REPEATS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setup_s.append(time.perf_counter() - started)
    outcome = workload.run(state, seconds=seconds)
    del state
    declared = load_benchmark()
    why = next(w["why"] for w in declared["workloads"] if w["name"] == name)
    values = {**outcome.metrics, "setup_s": statistics.median(setup_s)}
    samples = {**outcome.samples, "setup_s": len(setup_s)}
    report: Dict[str, Any] = {
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                "samples": samples[m["name"]]}
                    for m in declared["end_to_end"]},
        "setup_samples_s": setup_s,
        "checks": dict(outcome.checks), "info": outcome.info, "exact": outcome.exact,
        "ops": outcome.ops,
    }
    if trace:
        gc.collect()
        with Tracer() as tracer:
            for target in layer_targets():
                tracer.install(*target)
            origin = time.perf_counter()
            traced = workload.run(workload.setup(), seconds=seconds, ops=outcome.ops,
                                  checks=False)
            wall = time.perf_counter() - origin
        report["checks"]["traced_equals_untraced"] = traced.fingerprint == outcome.fingerprint
        layers = layer_values(tracer, wall, traced, outcome)
        report["per_layer"] = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                                           "unit": m["unit"]}
                               for m in declared["per_layer"]}
        report["trace_file"] = str(tracer.write_jsonl(trace_dir / f"trace-{name}.jsonl",
                                                      origin))
    report["correct"] = outcome.failed == 0 and all(report["checks"].values())
    return report


def result_line(report: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result: end-to-end metrics untraced, per-layer traced."""
    metrics = report["per_layer"] if report["trace"] else report["metrics"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }
