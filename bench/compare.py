"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is one ``bench/run.py --out`` result, or a baseline holding
several of them under ``"runs"``.  For every workload and end-to-end
metric it prints each side's median and quartiles, the relative change
of B's median against A's next to the metric's bound, and a verdict:

``unresolved``
    A side's quartile spread (as a share of its median) is wider than the
    bound, and neither side beats the other on every run.
``worse``
    B's median is worse than A's by more than the bound.
``better``
    Each side has at least three runs, B's median beats A's by more than
    A's quartile spread, and B wins at least nine in ten of all (a, b)
    pairs.
``unchanged``
    Anything else.

Values that the seed alone determines (a run's ``exact`` block) must be
identical across every run of one seed; a mismatch counts as worse.
Per-layer metrics, when both sides were traced, are listed without a
verdict.  Exits 1 if anything is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fewer runs than this give no quartile spread to beat, so no gain is claimed.
MIN_RUNS_FOR_GAIN = 3


def load_runs(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change of B's median; positive means worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    change = sign * (b_mid - a_mid) / a_mid
    spread = max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid)
    b_beats = [sign * (y - x) < 0 for x in a for y in b]
    a_beats = [sign * (x - y) < 0 for x in a for y in b]
    if spread > bound and not (all(b_beats) or all(a_beats)):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if (min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN and -change * a_mid > a_high - a_low
            and sum(b_beats) >= 0.9 * len(b_beats)):
        return "better", change
    return "unchanged", change


def values_of(runs: List[dict], workload: str, section: str, metric: str) -> List[float]:
    return [run["workloads"][workload][section][metric]["value"] for run in runs
            if metric in run["workloads"].get(workload, {}).get(section, {})]


def exact_mismatches(runs: List[dict]) -> List[str]:
    seen: Dict[Tuple, set] = {}
    for run in runs:
        for workload, report in run["workloads"].items():
            for key, value in report["exact"].items():
                seen.setdefault((workload, run["seed"], key), set()).add(value)
    return [f"{workload} seed={seed} {key}: {sorted(values)}"
            for (workload, seed, key), values in sorted(seen.items()) if len(values) > 1]


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = list(argv).index("--")
    side_a, side_b = load_runs(argv[:split]), load_runs(argv[split + 1:])
    if not side_a or not side_b:
        print("error: each side needs at least one run file", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    worse = 0
    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)")
    print(f"{'workload':<12} {'metric':<14} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            a = values_of(side_a, workload, "metrics", metric["name"])
            b = values_of(side_b, workload, "metrics", metric["name"])
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            cells = []
            for values in (a, b):
                low, mid, high = quartiles(values)
                cells.append(f"{mid:.5g} [{low:.5g}, {high:.5g}]")
            print(f"{workload:<12} {metric['name']:<14} {cells[0]:>32} {cells[1]:>32} "
                  f"{change:>+8.2%} {metric['bound']:>6.0%}  {result}")
    for metric in declared["per_layer"]:
        for workload in workloads:
            a = values_of(side_a, workload, "per_layer", metric["name"])
            b = values_of(side_b, workload, "per_layer", metric["name"])
            if a and b:
                print(f"  layer {workload:<12} {metric['name']:<38} "
                      f"{statistics.median(a):>12.5g} -> {statistics.median(b):<12.5g} "
                      f"{metric['unit']}")
    mismatches = exact_mismatches(side_a + side_b)
    for line in mismatches:
        print(f"exact value differs between runs of one seed: {line}")
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
