"""The benchmark's one command.

One workload, in this process (how each measured run is made)::

    python3 bench/run.py --workload ptf-train --seed 7 --seconds 10 --trace 0

Several workloads, each in a fresh subprocess so that peak RSS is that
workload's own, collected into one JSON file with the host's facts::

    python3 bench/run.py --seed 2024 --out run.json [--workload a b ...] [--trace]

Every run prints each metric with its unit and sample count, then the
verdicts of its correctness checks, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 900


def host_facts() -> Dict[str, Any]:
    import numpy as np

    from repro.tensor.backend import resolve_backend_name

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "backend": resolve_backend_name(None),
        "env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REPRO_BACKEND")},
    }


def print_report(report: Dict[str, Any]) -> None:
    print(f"[{report['workload']}] seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    for section in ("metrics", "per_layer"):
        for name, entry in report.get(section, {}).items():
            samples = f"  (n={entry['samples']})" if "samples" in entry else ""
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{samples}")
    for section in ("info", "exact"):
        if report[section]:
            print(f"  {section}: " + ", ".join(
                f"{key}={value:.6g}" for key, value in report[section].items()))
    print("  checks: " + ", ".join(
        f"{key}={'ok' if passed else 'FAILED'}" for key, passed in report["checks"].items()))
    print(f"  attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")


def run_one(args) -> Dict[str, Any]:
    from bench.harness import run_workload

    name = args.workload[0]
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run_workload(name, args.seed, args.seconds, bool(args.trace),
                            workdir=workdir, trace_dir=WORK, smoke=args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_each(args) -> Dict[str, Dict[str, Any]]:
    """Run every selected workload in its own subprocess; returns their reports."""
    reports = {}
    for name in args.workload:
        report_path = WORK / f"report-{name}-{os.getpid()}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--report", str(report_path)]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, timeout=CHILD_TIMEOUT_S, check=False)
        if completed.returncode != 0:
            raise RuntimeError(f"workload {name} exited with code {completed.returncode}")
        reports[name] = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
    return reports


def parse_args(argv: Optional[List[str]], names: List[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", "--workloads", nargs="+", choices=names,
                        default=names, help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=2024, help="derives every input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="rerun traced and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="write host facts and every report to this JSON file")
    parser.add_argument("--report", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/repro; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.harness import load_benchmark, result_line
    from bench.workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))

    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if len(args.workload) == 1:
        reports = {args.workload[0]: run_one(args)}
        print_report(reports[args.workload[0]])
    else:
        reports = run_each(args)
    if args.report is not None:
        args.report.write_text(json.dumps(reports[args.workload[0]], indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "host": host_facts(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "workloads": reports,
        }, indent=2) + "\n")
    lines = {name: result_line(report) for name, report in reports.items()}
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": entry for name, line in lines.items()
                        for metric, entry in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
