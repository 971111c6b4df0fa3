"""The benchmark's four seeded workloads and the checks on their outputs.

Every input derives from the ``seed`` a workload is built with: datasets,
experiment specs, the request stream and the swap schedule.  Each
workload has a *foreground* operation whose latency users wait on, a
measure of work done per second, and a *stall*: the heavyweight blocking
step that competes with the foreground.

============  ==================  =====================  ====================
workload      operation           work                   stall
============  ==================  =====================  ====================
ptf-train     one PTF round       client-rounds          checkpoint save
fedavg-10k    one FedAvg round    client-rounds          ranking evaluation
serve-swap    one top-20 request  requests at saturation hot swap until live
sweep-paper   one warm sweep      cold-sweep runs        cold sweep
============  ==================  =====================  ====================

:meth:`Workload.run` measures for ``seconds`` (or replays exactly ``ops``
operations, which is how the traced rerun repeats the untraced one) and
returns an :class:`Outcome`; its ``fingerprint`` must compare equal
between the two runs, because tracing never changes a result.
"""

from __future__ import annotations

import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro.artifacts import CheckpointEveryK
from repro.artifacts import checkpoint as checkpoints
from repro.data import synthetic
from repro.experiments import registry
from repro.experiments.callbacks import Callback, EvalEveryK
from repro.experiments.result import RoundRecord
from repro.federated.communication import prediction_triple_bytes
from repro.serve import Recommender, ServingGateway
from repro.sweep import ArtifactStore, DatasetSpec, RunSpec, Sweep, SweepSpec
from repro.utils.rng import RngFactory

from bench import loadgen

TOP_K = 20
#: Far more rounds than any run reaches; runs stop on time or on a round count.
OPEN_ENDED_ROUNDS = 1_000_000


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def foreground(op_ms, work_per_s: float, work_samples: int, stall_ms):
    """The gated metrics with their sample counts, and the latency tail:
    the highest percentile with at least ten samples beyond it (the
    largest sample when there are too few), reported but not gated.

    Called as soon as the measured work ends, so that peak RSS covers
    set-up and the run but not the correctness checks that follow.
    """
    metrics = {"op_p50_ms": percentile(op_ms, 50), "work_per_s": work_per_s,
               "stall_p50_ms": percentile(stall_ms, 50), "peak_rss_mb": peak_rss_mb()}
    samples = {"op_p50_ms": len(op_ms), "work_per_s": work_samples,
               "stall_p50_ms": len(stall_ms), "peak_rss_mb": 1}
    tail = {"op_max_ms": float(max(op_ms))}
    for q in (99.9, 99, 90):
        if len(op_ms) * (100 - q) / 100 >= 10:
            tail = {f"op_p{q:g}_ms": percentile(op_ms, q)}
            break
    return metrics, samples, {**tail, "op_samples": len(op_ms)}


def _kilobytes_per_client_round(records, rounds: int) -> float:
    pairs = {(r.client_id, r.round_index) for r in records if r.round_index < rounds}
    moved = sum(r.num_bytes for r in records if r.round_index < rounds)
    return moved / len(pairs) / 1024.0


@dataclass
class Outcome:
    """What one measured run produced."""

    ops: int
    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Printed and stored, never gated (tails with their counts, quality).
    info: Dict[str, float] = field(default_factory=dict)
    #: Values the seed alone determines; equal on every run of one seed.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers the program reports itself (traced runs use them).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Per-request arrays the traced run lines up against its spans.
    raw: Dict[str, np.ndarray] = field(default_factory=dict)
    fingerprint: Any = None


class Workload:
    """One seeded workload: ``setup()`` builds its state, ``run()`` measures it."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.rngs = RngFactory(self.seed)

    def setup(self):
        raise NotImplementedError

    def run(self, state, seconds: Optional[float] = None,
            ops: Optional[int] = None, checks: bool = True) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Training: PTF-FedRec and FedAvg
# ----------------------------------------------------------------------
class _Mark(Callback):
    """Appends ``(round, label, clock)`` at round start or at its list position."""

    def __init__(self, log: List, label: str):
        self.log, self.label = log, label

    def on_round_start(self, trainer, round_index: int) -> None:
        if self.label == "start":
            self.log.append((round_index, "start", time.perf_counter()))

    def on_round_end(self, trainer, round_index: int, logs) -> None:
        if self.label != "start":
            self.log.append((round_index, self.label, time.perf_counter()))


class _History(Callback):
    def __init__(self):
        self.records: List[RoundRecord] = []

    def on_round_end(self, trainer, round_index: int, logs) -> None:
        self.records.append(RoundRecord(round_index, dict(logs)))


class _Stop(Callback):
    """Stop after ``rounds`` rounds, or at the first round end past ``deadline``
    once ``min_rounds`` have run."""

    def __init__(self, deadline: Optional[float], rounds: Optional[int], min_rounds: int):
        self.deadline, self.rounds, self.min_rounds = deadline, rounds, min_rounds
        self.done = 0

    def on_round_end(self, trainer, round_index: int, logs) -> None:
        self.done += 1
        if self.rounds is not None:
            self.stop_training = self.done >= self.rounds
        else:
            self.stop_training = (self.done >= self.min_rounds
                                  and time.perf_counter() >= self.deadline)


class TrainingWorkload(Workload):
    """Trains round after round through the trainer's own ``fit`` loop."""

    eval_every = 1
    checkpoint_every: Optional[int] = None

    def dataset(self):
        raise NotImplementedError

    def spec(self) -> repro.ExperimentSpec:
        raise NotImplementedError

    def setup(self):
        return registry.create_trainer(self.spec(), self.dataset())

    def run(self, adapter, seconds=None, ops=None, checks=True) -> Outcome:
        marks: List = []
        history = _History()
        callbacks = [_Mark(marks, "start"), _Mark(marks, "trained"),
                     EvalEveryK(every=self.eval_every, k=TOP_K), _Mark(marks, "evaluated")]
        checkpoint_dir = self.workdir / "checkpoints"
        if self.checkpoint_every:
            callbacks += [CheckpointEveryK(checkpoint_dir, every=self.checkpoint_every,
                                           save_on_fit_end=False), _Mark(marks, "saved")]
        min_rounds = max(self.eval_every, self.checkpoint_every or 1)
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        callbacks += [history, _Stop(deadline, ops, min_rounds)]
        adapter.fit(callbacks=callbacks)
        window = time.perf_counter() - start
        started = time.perf_counter()
        final = adapter.evaluate()
        final_eval_s = time.perf_counter() - started

        at: Dict[tuple, float] = {(r, label): clock for r, label, clock in marks}
        rounds = [record.round_index for record in history.records]
        round_ms = [1000 * (at[r, "trained"] - at[r, "start"]) for r in rounds]
        eval_ms = [1000 * (at[r, "evaluated"] - at[r, "trained"])
                   for r in rounds if (r + 1) % self.eval_every == 0]
        save_ms = [1000 * (at[r, "saved"] - at[r, "evaluated"])
                   for r in rounds if self.checkpoint_every and (r + 1) % self.checkpoint_every == 0]
        stall_ms = save_ms if self.checkpoint_every else eval_ms
        logs = [record.metrics for record in history.records]
        client_rounds = sum(entry["num_clients"] for entry in logs)
        diverged = sum(1 for entry in logs if not all(
            math.isfinite(value) for key, value in entry.items() if key.endswith("_loss")))
        metrics, samples, tail = foreground(round_ms, client_rounds / window, len(rounds),
                                            stall_ms)
        outcome = Outcome(
            ops=len(rounds),
            metrics=metrics,
            samples=samples,
            attempted=len(rounds),
            failed=diverged,
            info={**tail, "final_eval_ms": 1000 * final_eval_s,
                  "ndcg_at_20": final.ndcg,
                  "comm_kb_per_client_round": adapter.ledger.average_client_round_kilobytes(),
                  "eval_p50_ms": percentile(eval_ms, 50)},
            exact={"ndcg_at_20_first_eval": logs[self.eval_every - 1]["ndcg"],
                   "comm_kb_per_client_round_first_eval":
                       _kilobytes_per_client_round(adapter.ledger.records, self.eval_every)},
            layer={"scenario.stale_applied": sum(entry.get("stale_applied", 0) for entry in logs)},
            raw={"round_ms": np.asarray(round_ms)},
            fingerprint=([record.to_dict() for record in history.records], final),
        )
        if checks:
            outcome.checks = {
                "losses_finite": diverged == 0,
                "batched_eval_equals_per_user": (
                    adapter.evaluate(max_users=100)
                    == adapter.evaluate(max_users=100, batch_size=None)),
                **self.extra_checks(adapter, history.records, final),
            }
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return outcome

    def extra_checks(self, adapter, records, final) -> Dict[str, bool]:
        return {}


class PTFTrain(TrainingWorkload):
    name = "ptf-train"
    eval_every = 4
    checkpoint_every = 4

    def dataset(self):
        scale = 0.05 if self.smoke else 0.1
        spec = synthetic.PAPER_SPECS["movielens-100k"].scaled(scale)
        return synthetic.generate_dataset(spec, rng=self.rngs.spawn("ptf-train-data"))

    def spec(self):
        return repro.ExperimentSpec(
            trainer="ptf", seed=self.seed, backend="numpy",
            model={"embedding_dim": 16},
            protocol={"rounds": OPEN_ENDED_ROUNDS, "client_local_epochs": 3,
                      "server_epochs": 2, "client_batch_size": 64,
                      "server_batch_size": 256, "learning_rate": 0.01},
            dispersal={"alpha": 30},
            evaluation={"k": TOP_K, "audit_privacy": False},
        )

    def extra_checks(self, adapter, records, final):
        """The ledger bills exactly the logged records, and resuming from the
        last checkpoint reproduces the uninterrupted run bit for bit."""
        by_round: Dict[tuple, int] = {}
        for record in adapter.ledger.records:
            key = (record.round_index, record.direction)
            by_round[key] = by_round.get(key, 0) + record.num_bytes
        ledger_ok = all(
            by_round.get((r.round_index, "upload"), 0)
            == prediction_triple_bytes(int(r.metrics["uploaded_records"]))
            and by_round.get((r.round_index, "download"), 0)
            == prediction_triple_bytes(int(r.metrics["dispersed_records"]))
            for r in records
        )
        resumed = repro.run(
            adapter.spec.replace(rounds=len(records)),
            resume_from=self.workdir / "checkpoints" / "latest",
            callbacks=[EvalEveryK(every=self.eval_every, k=TOP_K)],
        )
        return {"ledger_matches_round_logs": ledger_ok,
                "resume_identical": resumed.history == records and resumed.final == final}


class FedAvg10k(TrainingWorkload):
    name = "fedavg-10k"

    def dataset(self):
        users = 1_000 if self.smoke else 10_000
        return synthetic.debug_dataset(self.rngs.spawn("fedavg-10k-data"), num_users=users,
                                       num_items=400, num_interactions=3 * users)

    def spec(self):
        return repro.ExperimentSpec(
            trainer="fcf", seed=self.seed, backend="numpy",
            model={"embedding_dim": 16},
            protocol={"rounds": OPEN_ENDED_ROUNDS, "client_local_epochs": 1},
            engine={"scheduler": "batched", "payload": "sparse", "shard_size": 256},
            scenario={"dropout": 0.1, "latency_range": (0.0, 1.5), "deadline": 1.0,
                      "aggregation": "async"},
            evaluation={"k": TOP_K},
        )

    def extra_checks(self, adapter, records, final):
        """A fresh federation replays round 0 exactly."""
        replay = self.setup()
        history = _History()
        replay.fit(callbacks=[EvalEveryK(every=self.eval_every, k=TOP_K), history], rounds=1)
        return {"round_replay_identical": history.records[0] == records[0]}


# ----------------------------------------------------------------------
# Serving: open-loop traffic plus hot swaps on the gateway
# ----------------------------------------------------------------------
class ServeSwap(Workload):
    name = "serve-swap"
    #: Offered load, a small share of the gateway's capacity on a 2-core host.
    rate = 3000.0
    #: The run is open-loop traffic for ``load_share`` of its time, steady
    #: for the first ``steady_share`` of that and then with a swap every
    #: ``swap_every_s`` (wide enough that each is live before the next);
    #: saturating bursts fill the rest.
    load_share, steady_share, swap_every_s = 0.75, 0.25, 0.6
    max_batch = 128
    min_bursts = 3

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.num_users = 1_000 if smoke else 10_000
        self.num_items = 300 if smoke else 2_000
        self.burst_size = 500 if smoke else 2_000
        self.paths = {"v1": self.workdir / "v1", "v2": self.workdir / "v2"}

    def setup(self):
        """Train MetaMF for a round on 2% of the clients and save v1, then one
        more round and save v2; stand the gateway up on v1."""
        dataset = synthetic.debug_dataset(
            self.rngs.spawn("serve-swap-data"), num_users=self.num_users,
            num_items=self.num_items, num_interactions=3 * self.num_users)
        spec = repro.ExperimentSpec(
            trainer="metamf", seed=self.seed, backend="numpy",
            model={"embedding_dim": 16},
            protocol={"rounds": 2, "client_local_epochs": 1, "client_fraction": 0.02},
        )
        adapter = registry.create_trainer(spec, dataset)
        for version in ("v1", "v2"):
            adapter.fit(rounds=1)
            checkpoints.save_checkpoint(self.paths[version], adapter)
        return ServingGateway.from_checkpoint(self.paths["v1"], max_batch=self.max_batch,
                                              max_wait_ms=2.0, deadline_ms=None)

    def run(self, gateway, seconds=None, ops=None, checks=True) -> Outcome:
        rng = self.rngs.spawn("serve-swap-requests")
        open_loop = self.load_share * seconds
        due, users = loadgen.poisson_schedule(rng, self.rate, open_loop, self.num_users)
        swap_start = self.steady_share * open_loop
        swaps = [(offset, str(self.paths["v2" if n % 2 == 0 else "v1"])) for n, offset
                 in enumerate(np.arange(swap_start, open_loop, self.swap_every_s))]
        start = time.perf_counter()
        with gateway:
            load = loadgen.drive(gateway, due, users, TOP_K, swaps)
        stats = gateway.stats()
        bursts, capacity = [], []
        while len(bursts) < self.min_bursts or time.perf_counter() - start < seconds:
            bursts.append(rng.integers(0, self.num_users, size=self.burst_size))
            capacity.append(loadgen.capacity(gateway.service, bursts[-1], TOP_K,
                                             self.max_batch))

        latency = load.latency_ms
        steady = due < swap_start
        swapping = ~steady
        swap_ms = [1000 * (swap["live"] - swap["issued"]) for swap in load.swaps]
        metrics, samples, tail = foreground(
            latency[steady], float(np.median([qps for qps, _ in capacity])), len(bursts),
            swap_ms)
        outcome = Outcome(
            ops=due.size,
            metrics=metrics,
            samples=samples,
            attempted=due.size + len(bursts) * self.burst_size,
            failed=0,
            info={**tail, "op_p90_ms": percentile(latency[steady], 90),
                  "swapping_p90_ms": percentile(latency[swapping], 90) if swapping.any() else 0.0,
                  "swapping_requests": int(swapping.sum()),
                  "slo_250ms_misses": int((latency > 250.0).sum()),
                  "late_p99_ms": percentile(load.late_ms, 99),
                  "swaps": len(swap_ms)},
            exact={"requests": int(due.size)},
            layer={"serve.cache.hit_ratio":
                       stats.cache_hits / max(stats.cache_hits + stats.cache_misses, 1)},
            raw={"completed": load.completed[steady], "latency_ms": latency[steady]},
            fingerprint=[np.asarray(answer).tolist() for answer, keep
                         in zip(load.answers, steady) if keep],
        )
        if checks:
            wrong = self._wrong_answers(load, users, capacity, bursts)
            outcome.failed = wrong
            outcome.checks = {"answers_match_direct_recommend": wrong == 0,
                              "every_swap_went_live": len(swap_ms) == len(swaps)}
        return outcome

    def _wrong_answers(self, load, users, capacity, burst_users) -> int:
        """Count answers that are errors, rejections, or differ from a direct
        ``Recommender.recommend`` on the checkpoint live at the time.

        Before the first swap is issued only v1 may answer; once the last
        swap is live only its target may; in between either may.
        """
        expected = {}
        for path in self.paths.values():
            service = Recommender.from_checkpoint(path, cache_size=0)
            rows = expected[str(path)] = []
            for chunk in np.array_split(np.arange(self.num_users), 10):
                rows.extend(service.recommend(chunk, k=TOP_K))
        first_issue = min((s["issued"] for s in load.swaps), default=math.inf)
        last_live = max((s["live"] for s in load.swaps), default=math.inf)
        final = load.swaps[-1]["target"] if load.swaps else str(self.paths["v1"])
        v1 = str(self.paths["v1"])

        def allowed(completed: float, submitted: float):
            if completed < first_issue:
                return (v1,)
            if submitted > last_live:
                return (final,)
            return tuple(expected)

        wrong = 0
        for index, answer in enumerate(load.answers):
            if not isinstance(answer, np.ndarray) or not any(
                    np.array_equal(answer, expected[key][users[index]])
                    for key in allowed(load.completed[index], load.submitted[index])):
                wrong += 1
        for (_, answers), chunk in zip(capacity, burst_users):
            wrong += sum(1 for answer, user in zip(answers, chunk)
                         if not (isinstance(answer, np.ndarray)
                                 and np.array_equal(answer, expected[final][user])))
        return wrong


# ----------------------------------------------------------------------
# Sweeps: cold parallel training, then warm cache reads
# ----------------------------------------------------------------------
class SweepPaper(Workload):
    name = "sweep-paper"
    trainers = ("fcf", "fedmf", "metamf", "ptf")
    datasets = ("movielens-mini", "steam-mini", "gowalla-mini")
    workers = 2

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.warm_per_cold = 3 if smoke else 25
        rounds = 1 if smoke else 2
        runs = []
        for name in self.datasets:
            dataset = DatasetSpec(source="mini", name=name, seed=self.seed)
            for trainer in self.trainers:
                spec = repro.ExperimentSpec.from_flat(
                    trainer=trainer, seed=self.seed, backend="numpy", rounds=rounds,
                    client_local_epochs=1, server_epochs=1, client_batch_size=64,
                    server_batch_size=128, learning_rate=0.01, embedding_dim=16,
                    client_mlp_layers=(32, 16, 8), alpha=30, k=TOP_K,
                    audit_privacy=False)
                runs.append(RunSpec(f"{name}/{trainer}", spec, dataset))
        self.spec_json = SweepSpec(name="sweep-paper", runs=runs).to_json()
        self.cycle = 0

    def _fresh_store(self) -> ArtifactStore:
        self.cycle += 1
        root = self.workdir / "stores" / f"store-{self.cycle}"
        shutil.rmtree(self.workdir / "stores", ignore_errors=True)
        return ArtifactStore(root)

    def setup(self):
        """Parse the sweep, open a fresh store and fingerprint every run."""
        sweep = Sweep(SweepSpec.from_json(self.spec_json), store=self._fresh_store(),
                      workers=self.workers)
        sweep.fingerprints()
        return sweep

    def run(self, sweep, seconds=None, ops=None, checks=True) -> Outcome:
        cold_ms, warm_ms, executed, failed, cycles = [], [], 0, 0, 0
        efficiency, hit_ratio = [], []
        reference = None
        identical = True
        start = time.perf_counter()
        while True:
            sweep = Sweep(sweep.spec, store=self._fresh_store(), workers=self.workers)
            started = time.perf_counter()
            cold = sweep.run()
            cold_ms.append(1000 * (time.perf_counter() - started))
            executed += cold.report.executed
            efficiency.append(cold.report.executed_seconds
                              / (cold.report.wall_time_seconds * self.workers))
            results = {run_id: result.to_dict() for run_id, result in cold.results.items()}
            timeless = {run_id: {k: v for k, v in data.items() if k != "duration_seconds"}
                        for run_id, data in results.items()}
            reference = timeless if reference is None else reference
            identical &= timeless == reference
            for _ in range(self.warm_per_cold):
                started = time.perf_counter()
                warm = Sweep(sweep.spec, store=sweep.store, workers=self.workers).run()
                warm_ms.append(1000 * (time.perf_counter() - started))
                hit_ratio.append(warm.report.cache_hits / warm.report.total_runs)
                if warm.report.executed or {
                        run_id: result.to_dict() for run_id, result in warm.results.items()
                } != results:
                    failed += 1
            cycles += 1
            if cycles == ops or (ops is None and time.perf_counter() - start >= (seconds or 0)):
                break
        finals = [data["final"] for data in reference.values()]
        metrics, samples, tail = foreground(warm_ms, executed / (sum(cold_ms) / 1000),
                                            len(cold_ms), cold_ms)
        outcome = Outcome(
            ops=cycles,
            metrics=metrics,
            samples=samples,
            attempted=len(cold_ms) + len(warm_ms),
            failed=failed,
            info={**tail, "cold_sweeps": len(cold_ms), "warm_sweeps": len(warm_ms),
                  "runs_per_sweep": len(sweep.spec.runs)},
            exact={"ndcg_at_20_mean": float(np.mean([f[f"NDCG@{TOP_K}"] for f in finals]))},
            layer={"sweep.parallel_efficiency": float(np.median(efficiency)),
                   "sweep.cache_hit_ratio": float(np.mean(hit_ratio))},
            fingerprint=reference,
        )
        if checks:
            outcome.checks = {"warm_sweeps_execute_nothing_and_match_cold": failed == 0,
                              "cold_sweeps_identical_across_stores": identical}
        shutil.rmtree(self.workdir / "stores", ignore_errors=True)
        return outcome


WORKLOADS = {cls.name: cls for cls in (PTFTrain, FedAvg10k, ServeSwap, SweepPaper)}
