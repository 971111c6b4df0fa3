"""Checks on the benchmark itself, at smoke sizes (seconds, not minutes).

Collected by the repository's tier-1 ``pytest`` run, so a change that
breaks a workload, a correctness check, the tracer's accounting, the
result format or ``BENCHMARK.json`` fails there without a CI edit.
``conftest.py`` runs them last, after the repository's timing-bound tests.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare
from bench.harness import load_benchmark, layer_targets, run_workload
from bench.tracing import Tracer
from bench.workloads import WORKLOADS, PTFTrain

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every workload once at smoke size, untraced then traced."""
    root = tmp_path_factory.mktemp("bench")
    return {
        name: run_workload(name, seed=3, seconds=1.0, trace=True,
                           workdir=root / name, trace_dir=root, smoke=True)
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_and_emits_every_declared_metric(reports, name):
    report = reports[name]
    declared = load_benchmark()
    assert report["correct"], report["checks"]
    assert report["checks"]["traced_equals_untraced"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert list(report["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert list(report["per_layer"]) == [m["name"] for m in declared["per_layer"]]
    for entry in report["metrics"].values():
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    for entry in report["per_layer"].values():
        assert math.isfinite(entry["value"])
    assert Path(report["trace_file"]).stat().st_size > 0


def test_workload_specific_checks_ran(reports):
    assert reports["ptf-train"]["checks"]["resume_identical"]
    assert reports["fedavg-10k"]["checks"]["round_replay_identical"]
    assert reports["serve-swap"]["checks"]["answers_match_direct_recommend"]
    assert reports["sweep-paper"]["checks"]["warm_sweeps_execute_nothing_and_match_cold"]


def test_every_per_layer_metric_is_measured_somewhere(reports):
    """A misspelt span or counter would read 0 on every workload."""
    for metric in load_benchmark()["per_layer"]:
        assert any(report["per_layer"][metric["name"]]["value"] != 0
                   for report in reports.values()), metric["name"]


def test_ptf_phases_and_round_self_time_cover_the_round_wall(tmp_path):
    workload = PTFTrain(seed=5, workdir=tmp_path, smoke=True)
    with Tracer() as tracer:
        for target in layer_targets():
            tracer.install(*target)
        outcome = workload.run(workload.setup(), ops=4, checks=False)
    busy, own, _ = tracer.busy_and_self()
    phases = ("engine.train_ptf_clients", "engine.build_ptf_uploads",
              "core.PTFServer.train_on_uploads", "engine.build_ptf_dispersals")
    covered = sum(own[name] for name in phases) + own["core.PTFFedRec.run_round"]
    round_wall = sum(outcome.raw["round_ms"]) / 1000.0
    assert covered == pytest.approx(round_wall, rel=0.05)
    assert busy["core.PTFFedRec.run_round"] == pytest.approx(round_wall, rel=0.05)


def test_cli_prints_one_result_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ptf-train", "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--smoke", "--out", str(tmp_path / "run.json")],
        capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    for metric in load_benchmark()["end_to_end"]:
        assert metric["name"] in completed.stdout
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    saved = json.loads((tmp_path / "run.json").read_text())
    assert saved["host"]["nproc"] >= 1 and "ptf-train" in saved["workloads"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ptf-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_benchmark_json_follows_the_contract():
    data = load_benchmark()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["paths"] == ["bench"] and data["command"] == ["python3", "bench/run.py"]
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    names = []
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "worse"
    noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(steady, [v + 1000 for v in noisy], "lower", 0.1)[0] == "worse"


def test_bench_is_lint_clean():
    """Seeded randomness only and no wall-clock reads, as for benchmarks/."""
    from repro.analysis.core import FileContext, analyze_file, get_rules

    findings = []
    for path in sorted(BENCH.glob("*.py")):
        context = FileContext(path.read_text(), f"bench/{path.name}", role="benchmarks")
        findings += analyze_file(context, get_rules(None))
    assert findings == []
    if shutil.which("ruff"):
        subprocess.run(["ruff", "check", str(BENCH)], cwd=ROOT, check=True)
