"""repro.sweep — specs, fingerprints, the artifact store and the orchestrator.

The contracts under test:

* fingerprints are stable across processes, insensitive to execution-only
  knobs (``engine`` section, evaluation batch size) and sensitive to every
  arithmetic knob (spec fields, seed, backend, dataset),
* the artifact store completes atomically and never serves a torn result,
* the orchestrator executes each fingerprint at most once (cache hits and
  in-sweep dedup), parallel results ``==`` serial results ``==`` direct
  ``repro.run``, and a killed sweep resumes by executing exactly the
  missing runs,
* ``final_metrics`` reads back what the removed ``"final-metrics"`` stage
  returned, and sweep files that still declare stages are rejected.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.sweep import (
    ArtifactStore,
    DatasetSpec,
    RunSpec,
    SweepError,
    SweepReport,
    SweepSpec,
    expand_grid,
    final_metrics,
    run_sweep,
)

#: Tiny but real experiment: 2 rounds of PTF on the debug dataset.
BASE = {"trainer": "ptf", "protocol": {"rounds": 2},
        "evaluation": {"audit_privacy": False}}
DATASET = {"source": "debug", "seed": 5}

#: A registered trainer whose construction always fails, for exercising the
#: orchestrator's failure path (inline workers keep it in-process).
_EXPLODING_TRAINER = "test-sweep-exploding"


class _ExplodingTrainer:
    def __init__(self, spec, dataset):
        raise RuntimeError("deliberate test failure")


@pytest.fixture
def exploding_trainer():
    """Register the always-failing trainer for one test, then remove it so
    the global registry stays clean (registry-coverage tests enumerate it)."""
    from repro.experiments.registry import _TRAINER_REGISTRY

    repro.register_trainer(_EXPLODING_TRAINER, replace=True)(_ExplodingTrainer)
    try:
        yield _EXPLODING_TRAINER
    finally:
        _TRAINER_REGISTRY.pop(_EXPLODING_TRAINER, None)


def tiny_sweep(name="tiny", grid=None):
    return SweepSpec.from_grid(
        name, base=BASE, grid=grid or {"alpha": [10, 30]}, dataset=DATASET,
    )


#: Stage declarations of the removed DAG, one per rule it used to check.
LEGACY_STAGES = {
    "final-metrics": [{"name": "metrics", "aggregator": "final-metrics"}],
    "cycle": [{"name": "a", "aggregator": "final-metrics", "needs": ["b"]},
              {"name": "b", "aggregator": "final-metrics", "needs": ["a"]}],
    "unknown-need": [{"name": "a", "aggregator": "final-metrics", "needs": ["ghost"]}],
    "self-dependency": [{"name": "s", "aggregator": "final-metrics", "needs": ["s"]}],
    "unknown-aggregator": [{"name": "a", "aggregator": "no-such"}],
    "name-collision": [{"name": "alpha=10", "aggregator": "final-metrics"}],
}


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_grid_expansion_ids_and_values(self):
        runs = expand_grid(
            repro.ExperimentSpec.from_dict(BASE),
            {"alpha": [10, 30], "seed": [0, 1]},
        )
        assert [run.id for run in runs] == [
            "alpha=10,seed=0", "alpha=10,seed=1",
            "alpha=30,seed=0", "alpha=30,seed=1",
        ]
        assert runs[2].experiment.dispersal.alpha == 30
        assert runs[2].experiment.seed == 0

    def test_grid_dataset_axis(self):
        datasets = {"a": DatasetSpec(seed=1), "b": DatasetSpec(seed=2)}
        runs = expand_grid(
            repro.ExperimentSpec.from_dict(BASE),
            {"dataset": ["a", "b"]}, datasets=datasets,
        )
        assert [run.dataset.seed for run in runs] == [1, 2]

    def test_grid_unknown_dataset_alias_rejected(self):
        with pytest.raises(ValueError, match="not declared"):
            expand_grid(repro.ExperimentSpec.from_dict(BASE), {"dataset": ["nope"]})

    def test_json_round_trip(self):
        sweep = tiny_sweep()
        restored = SweepSpec.from_json(sweep.to_json())
        assert [run.id for run in restored.runs] == [run.id for run in sweep.runs]
        assert restored.runs[0].experiment == sweep.runs[0].experiment
        assert restored.runs[0].dataset == sweep.runs[0].dataset

    @pytest.mark.parametrize("stages", LEGACY_STAGES.values(), ids=LEGACY_STAGES.keys())
    def test_json_with_stages_is_rejected(self, stages):
        data = {**tiny_sweep().to_dict(), "stages": stages}
        with pytest.raises(ValueError, match=r"final_metrics\(outcome\.results\)"):
            SweepSpec.from_dict(data)

    def test_empty_stages_list_still_loads(self):
        # Earlier ``to_dict`` output always carried ``"stages": []``.
        data = {**tiny_sweep().to_dict(), "stages": []}
        assert SweepSpec.from_dict(data).runs == tiny_sweep().runs

    def test_declarative_experiments_with_overrides(self):
        sweep = SweepSpec.from_dict({
            "name": "explicit",
            "base": BASE,
            "datasets": {"d": DATASET},
            "experiments": [
                {"id": "low", "overrides": {"alpha": 5}},
                {"id": "high", "overrides": {"alpha": 95}, "dataset": "d"},
                {"spec": BASE},
            ],
        })
        assert [run.id for run in sweep.runs] == ["low", "high", "run-2"]
        assert sweep.runs[1].experiment.dispersal.alpha == 95
        assert sweep.runs[1].dataset.seed == 5

    def test_duplicate_run_ids_rejected(self):
        run = RunSpec("same", repro.ExperimentSpec.from_dict(BASE))
        with pytest.raises(ValueError, match="duplicate run id"):
            SweepSpec(name="dup", runs=[run, run])

    def test_unknown_dataset_source_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset source"):
            DatasetSpec(source="no-such-source")

    def test_unknown_sweep_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"name": "x", "grids": {}})

    def test_mini_source_matches_benchmark_datasets(self):
        from repro.data import MINI_SPECS, generate_dataset
        from repro.utils.rng import RngFactory

        from repro.artifacts.checkpoint import dataset_fingerprint

        name = "movielens-mini"
        built = DatasetSpec(source="mini", name=name, seed=2024).build()
        expected = generate_dataset(
            MINI_SPECS[name], rng=RngFactory(2024).spawn(f"dataset-{name}")
        )
        assert built.num_users == expected.num_users
        assert dataset_fingerprint(built) == dataset_fingerprint(expected)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_and_sensitive(self):
        spec = repro.ExperimentSpec.from_dict(BASE)
        base = spec.fingerprint("datasetsha")
        assert base == spec.fingerprint("datasetsha")          # deterministic
        assert base != spec.fingerprint("othersha")            # dataset-sensitive
        assert base != spec.replace(alpha=50).fingerprint("datasetsha")
        assert base != spec.replace(seed=9).fingerprint("datasetsha")
        assert base != spec.replace(backend="numpy32").fingerprint("datasetsha")

    def test_execution_only_knobs_do_not_change_it(self):
        spec = repro.ExperimentSpec.from_dict(BASE)
        assert spec.fingerprint("d") == spec.replace(
            scheduler="batched", shard_size=4
        ).fingerprint("d")
        assert spec.fingerprint("d") == spec.replace(batch_size=7).fingerprint("d")
        assert spec.fingerprint("d") == spec.replace(verbose=True).fingerprint("d")

    def test_cross_process_stability(self):
        spec = repro.ExperimentSpec.from_dict(BASE)
        code = (
            "import repro, json, sys; "
            f"spec = repro.ExperimentSpec.from_dict(json.loads({json.dumps(json.dumps(BASE))})); "
            "print(spec.fingerprint('datasetsha'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": _src_path()},
        )
        assert out.stdout.strip() == spec.fingerprint("datasetsha")


def _src_path() -> str:
    return str(Path(repro.__file__).resolve().parents[1])


def _comparable(results):
    """Run results stripped of wall time — everything a table is built from.

    ``duration_seconds`` is measured, not computed, so it legitimately
    differs between executions of the same fingerprint; every other field
    must be ``==``.
    """
    return {
        run_id: {k: v for k, v in result.to_dict().items() if k != "duration_seconds"}
        for run_id, result in results.items()
    }


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def _result(self):
        return repro.run(repro.ExperimentSpec.from_dict(
            {**BASE, "protocol": {"rounds": 1}, "model": {"embedding_dim": 4}}
        ))

    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = self._result()
        store.save("f" * 8, result)
        assert store.completed("f" * 8)
        assert store.load("f" * 8) == result
        assert store.fingerprints() == ["f" * 8]
        assert len(store) == 1 and "f" * 8 in store

    def test_empty_slot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("missing") is None
        assert not store.completed("missing")
        assert store.provenance("missing") is None

    def test_provenance_recorded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = self._result()
        store.save("abc", result)
        prov = store.provenance("abc")
        assert prov["spec_fingerprint"] == result.spec.fingerprint()
        assert prov["backend"] == result.spec.backend
        assert prov["repro_version"] == repro.__version__
        assert prov["wall_time_seconds"] == result.duration_seconds

    def test_temp_dirs_are_not_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / ".tmp-deadbeef-123").mkdir()
        (tmp_path / ".tmp-deadbeef-123" / "result.json").write_text("{}")
        assert store.fingerprints() == []
        assert not store.completed("deadbeef")

    def test_partial_slot_without_result_is_incomplete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / "deadbeef").mkdir()     # no result.json inside
        assert not store.completed("deadbeef")
        assert store.load("deadbeef") is None
        assert store.fingerprints() == []

    def test_concurrent_save_of_same_fingerprint_is_tolerated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = self._result()
        store.save("abc", result)
        store.save("abc", result)           # second writer: keep the winner
        assert store.load("abc") == result

    def test_discard(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("abc", self._result())
        assert store.discard("abc") is True
        assert store.discard("abc") is False
        assert store.load("abc") is None

    def test_invalid_fingerprints_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", ".tmp-x", "a/b"):
            with pytest.raises(ValueError):
                store.path(bad)

    def test_truncated_result_names_the_slot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("abc", self._result())
        path = store.result_path("abc")
        path.write_text(path.read_text()[:100])
        with pytest.raises(ValueError, match="ArtifactStore.discard") as raised:
            store.load("abc")
        assert str(path) in str(raised.value)
        assert isinstance(raised.value.__cause__, json.JSONDecodeError)

    def test_result_missing_keys_names_the_slot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("abc", self._result())
        path = store.result_path("abc")
        data = json.loads(path.read_text())
        del data["final"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="ArtifactStore.discard") as raised:
            store.load("abc")
        assert str(path) in str(raised.value)
        assert isinstance(raised.value.__cause__, KeyError)


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class TestSweepRunner:
    def test_serial_equals_parallel_equals_direct(self, tmp_path):
        sweep = tiny_sweep()
        serial = run_sweep(sweep, store=tmp_path / "serial", workers=1)
        parallel = run_sweep(sweep, store=tmp_path / "parallel", workers=2)
        assert _comparable(serial.results) == _comparable(parallel.results)
        # ... and both match a bare repro.run on the same spec and dataset.
        run = sweep.runs[0]
        direct = repro.run(run.experiment, run.dataset.build())
        got = serial.results[run.id]
        assert got.final == direct.final
        assert got.history == direct.history
        assert got.communication == direct.communication

    def test_second_invocation_is_all_cache_hits(self, tmp_path):
        sweep = tiny_sweep()
        first = run_sweep(sweep, store=tmp_path, workers=1)
        second = run_sweep(sweep, store=tmp_path, workers=1)
        assert first.report.executed == 2 and first.report.cache_hits == 0
        assert second.report.executed == 0 and second.report.cache_hits == 2
        assert second.results == first.results
        assert second.report.saved_seconds > 0

    def test_identical_runs_dedupe_within_a_sweep(self, tmp_path):
        base = repro.ExperimentSpec.from_dict(BASE)
        runs = [RunSpec(f"copy-{i}", base, DatasetSpec(**DATASET)) for i in range(3)]
        outcome = run_sweep(SweepSpec(name="dedupe", runs=runs), store=tmp_path,
                            workers=1)
        assert outcome.report.total_runs == 3
        assert outcome.report.executed == 1 and outcome.report.cache_hits == 2
        assert outcome.results["copy-0"] == outcome.results["copy-2"]

    def test_final_metrics_matches_the_final_metrics_stage(self, tmp_path):
        # Recorded from the "final-metrics" stage this function replaced, on
        # the same two-run sweep (backend pinned so every CI leg agrees).
        expected = {
            "alpha=10": {"Recall@20": 0.4016666666666666, "NDCG@20": 0.2670408844077274,
                         "Precision@20": 0.10333333333333332,
                         "HitRate@20": 0.7333333333333333,
                         "k": 20, "num_users_evaluated": 30},
            "alpha=30": {"Recall@20": 0.4016666666666666, "NDCG@20": 0.2518373294896279,
                         "Precision@20": 0.10333333333333332,
                         "HitRate@20": 0.7333333333333333,
                         "k": 20, "num_users_evaluated": 30},
        }
        sweep = SweepSpec.from_grid("tiny", base={**BASE, "backend": "numpy"},
                                    grid={"alpha": [10, 30]}, dataset=DATASET)
        outcome = run_sweep(sweep, store=tmp_path, workers=1)
        assert final_metrics(outcome.results) == expected

    def test_failed_run_raises_sweep_error_and_keeps_completed(
        self, tmp_path, exploding_trainer
    ):
        good = repro.ExperimentSpec.from_dict(BASE)
        bad = repro.ExperimentSpec(trainer=exploding_trainer)
        sweep = SweepSpec(name="failing", runs=[
            RunSpec("good", good, DatasetSpec(**DATASET)),
            RunSpec("bad", bad, DatasetSpec(**DATASET)),
        ])
        with pytest.raises(SweepError) as excinfo:
            run_sweep(sweep, store=tmp_path, workers=1)
        assert set(excinfo.value.failures) == {"bad"}
        assert "deliberate test failure" in excinfo.value.failures["bad"]
        # The good run's artifact survived; a retry would only run "bad".
        store = ArtifactStore(tmp_path)
        assert len(store) == 1

    def test_report_round_trip(self, tmp_path):
        outcome = run_sweep(tiny_sweep(), store=tmp_path / "s", workers=1)
        path = outcome.report.save(tmp_path / "report.json")
        restored = SweepReport.from_dict(json.loads(path.read_text()))
        assert restored.to_dict() == outcome.report.to_dict()
        assert restored.total_runs == 2
        assert "sweep 'tiny'" in restored.summary()

    def test_telemetry_content(self, tmp_path):
        outcome = run_sweep(tiny_sweep(), store=tmp_path, workers=1)
        by_id = {t.run_id: t for t in outcome.report.runs}
        assert set(by_id) == {"alpha=10", "alpha=30"}
        assert all(not t.cached for t in by_id.values())
        assert all(t.trainer == "ptf" for t in by_id.values())
        assert all(t.wall_time_seconds > 0 for t in by_id.values())

    def test_backend_mix_in_one_sweep(self, tmp_path):
        sweep = tiny_sweep(grid={"backend": ["numpy", "numpy32"]})
        outcome = run_sweep(sweep, store=tmp_path, workers=1)
        assert outcome.results["backend=numpy"].spec.backend == "numpy"
        assert outcome.results["backend=numpy32"].spec.backend == "numpy32"
        # Distinct fingerprints: both executed, nothing deduped.
        assert outcome.report.executed == 2


# ----------------------------------------------------------------------
# Crash resume
# ----------------------------------------------------------------------
_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.sweep import SweepSpec, run_sweep

sweep = SweepSpec.from_json(open({sweep_path!r}).read())
outcome = run_sweep(sweep, store={store!r}, workers=1)
print("COMPLETED", outcome.report.executed)
"""


class TestCrashResume:
    N_RUNS = 4

    def _sweep(self):
        return tiny_sweep("resume", grid={"alpha": [10, 30, 50, 70]})

    def test_sigkill_then_resume_executes_exactly_the_missing_runs(self, tmp_path):
        sweep = self._sweep()
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(sweep.to_json())
        store_root = tmp_path / "store"
        driver = _DRIVER.format(src=_src_path(), sweep_path=str(sweep_path),
                                store=str(store_root))

        # Start a serial sweep in a subprocess and SIGKILL it once at
        # least one artifact has completed (but before all N finish).
        proc = subprocess.Popen(
            [sys.executable, "-c", driver],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        store = ArtifactStore(store_root)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if len(store) >= 1 or proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, (
            "sweep finished before it could be killed; shrink the kill "
            f"threshold (stdout={proc.stdout.read()!r})"
        )
        proc.kill()
        proc.wait()

        # Re-count *after* the kill: K artifacts survived the crash.
        completed = len(store)
        assert 1 <= completed < self.N_RUNS
        # Atomicity: no half-written artifact slots, only temp dirs at worst.
        for fingerprint in store.fingerprints():
            assert store.load(fingerprint) is not None

        # Resume: the re-invocation executes exactly N - K runs...
        out = subprocess.run(
            [sys.executable, "-c", driver],
            capture_output=True, text=True, check=True, timeout=600,
        )
        assert f"COMPLETED {self.N_RUNS - completed}" in out.stdout

        # ... and the final table == an uninterrupted serial sweep.
        uninterrupted = run_sweep(self._sweep(), store=tmp_path / "fresh",
                                  workers=1)
        resumed = run_sweep(self._sweep(), store=store_root, workers=1)
        assert resumed.report.executed == 0          # everything cached now
        assert _comparable(resumed.results) == _comparable(uninterrupted.results)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _invoke(self, *argv):
        from repro.sweep.__main__ import main
        return main(list(argv))

    def test_end_to_end(self, tmp_path, capsys):
        sweep = tiny_sweep()
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(sweep.to_json())
        report_path = tmp_path / "report.json"
        code = self._invoke(str(sweep_path), "--store", str(tmp_path / "store"),
                            "--workers", "1", "--report", str(report_path),
                            "--quiet")
        captured = capsys.readouterr()
        assert code == 0
        report = SweepReport.load(report_path)
        assert report.executed == 2
        metrics = json.loads(captured.out.rsplit("\n", 2)[0])  # summary is last line
        store = ArtifactStore(tmp_path / "store")
        results = {run.run_id: store.load(run.fingerprint) for run in report.runs}
        assert metrics == final_metrics(results)
        assert set(metrics) == {"alpha=10", "alpha=30"}

        # Second invocation: all cache hits, zero training.
        code = self._invoke(str(sweep_path), "--store", str(tmp_path / "store"),
                            "--workers", "1", "--report", str(report_path),
                            "--quiet")
        assert code == 0
        assert SweepReport.load(report_path).executed == 0

    def test_unreadable_file_is_usage_error(self, tmp_path):
        assert self._invoke(str(tmp_path / "missing.json")) == 2

    def test_invalid_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))   # no runs
        assert self._invoke(str(bad)) == 2

    def test_stages_are_a_usage_error_naming_final_metrics(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({**tiny_sweep().to_dict(),
                                      "stages": LEGACY_STAGES["cycle"]}))
        assert self._invoke(str(legacy), "--store", str(tmp_path / "store")) == 2
        assert "final_metrics" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()     # nothing executed

    def test_torn_artifact_exits_1_naming_the_slot(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(tiny_sweep().to_json())
        argv = (str(sweep_path), "--store", str(tmp_path / "store"),
                "--workers", "1", "--quiet")
        assert self._invoke(*argv) == 0
        store = ArtifactStore(tmp_path / "store")
        torn = store.result_path(store.fingerprints()[0])
        torn.write_text(torn.read_text()[:50])
        capsys.readouterr()
        assert self._invoke(*argv) == 1
        assert str(torn) in capsys.readouterr().err
