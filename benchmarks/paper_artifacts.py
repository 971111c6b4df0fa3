"""Regenerate every paper table and figure from one command.

    python benchmarks/paper_artifacts.py [--store DIR] [--workers N]
                                         [--only table3,fig4] [--report PATH]

The sweep-backed artifacts (Table III, Table IV, Figure 4 — the
multi-experiment ones) run natively through :mod:`repro.sweep` against a
**persistent** artifact store (default ``sweep-artifacts/`` next to this
script, override with ``--store`` or ``REPRO_SWEEP_STORE``): the first
invocation trains everything, any later invocation — after a crash, a new
figure, or a tweak to one method — executes only the runs whose
fingerprints are missing.  The remaining tables and figures
(``--with-pytest``, on by default for ``--only all``) are regenerated by
running their benchmark modules through pytest, so one command really does
rebuild the whole evaluation section (those modules run sweeps of their
own, against the same store).

Exit codes: 0 — everything regenerated; 1 — a sweep run or pytest-backed
benchmark failed; 2 — usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import print_table  # noqa: E402
import sweeps  # noqa: E402

from repro.sweep import ArtifactStore, SweepReport, final_metrics, run_sweep  # noqa: E402

#: The benchmark modules that regenerate the non-sweep artifacts.
PYTEST_ARTIFACTS = (
    "test_table2_dataset_stats.py",
    "test_table5_privacy.py",
    "test_table6_defense_efficiency.py",
    "test_table7_dispersal_ablation.py",
    "test_table8_model_combinations.py",
    "test_fig3_privacy_hyperparams.py",
)


def _table3(store: ArtifactStore, workers: Optional[int]) -> SweepReport:
    outcome = run_sweep(sweeps.table3_sweep(), store=store, workers=workers,
                        progress=print)
    results = sweeps.table3_results(final_metrics(outcome.results))
    print_table(
        "Table III — recommendation performance (mini scale)",
        sweeps.table3_header(),
        sweeps.table3_rows(results),
    )
    return outcome.report


def _table4(store: ArtifactStore, workers: Optional[int]) -> SweepReport:
    outcome = run_sweep(sweeps.table4_sweep(), store=store, workers=workers,
                        progress=print)
    costs = sweeps.table4_costs(outcome.results)
    print_table(
        "Table IV (measured on mini datasets, per client per round)",
        ["Dataset", "FCF", "FedMF (HE)", "MetaMF", "PTF-FedRec", "best baseline / PTF"],
        sweeps.table4_rows(costs),
    )
    return outcome.report


def _fig4(store: ArtifactStore, workers: Optional[int]) -> SweepReport:
    outcome = run_sweep(sweeps.fig4_sweep(), store=store, workers=workers,
                        progress=print)
    print_table(
        "Figure 4 — dispersed dataset size α (MovieLens mini)",
        ["alpha", "NDCG@20", "Recall@20"],
        sweeps.fig4_series(final_metrics(outcome.results)),
    )
    return outcome.report


SWEEP_ARTIFACTS: Dict[str, Callable[[ArtifactStore, Optional[int]], SweepReport]] = {
    "table3": _table3,
    "table4": _table4,
    "fig4": _fig4,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/paper_artifacts.py",
        description="Regenerate the paper's tables and figures (see docs/reproducing.md)",
    )
    parser.add_argument(
        "--only", default="all",
        help="comma-separated artifacts to regenerate: "
             f"{', '.join(SWEEP_ARTIFACTS)} (sweep-backed), or 'all' "
             "(default: everything, including the pytest-backed tables)",
    )
    parser.add_argument(
        "--store", default=None,
        help="sweep artifact store (default: REPRO_SWEEP_STORE or "
             "benchmarks/sweep-artifacts; persists across invocations, so "
             "re-runs only execute missing runs — clear it after changing "
             "training code)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="sweep worker processes (default: all cores, capped at 8)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write combined sweep telemetry JSON to PATH",
    )
    parser.add_argument(
        "--no-pytest", action="store_true",
        help="skip the pytest-backed artifacts (tables 2/5/6/7/8, figure 3)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import os

    parser = build_parser()
    args = parser.parse_args(argv)

    names = [name.strip() for name in args.only.split(",") if name.strip()]
    run_all = names == ["all"]
    if not run_all:
        unknown = sorted(set(names) - set(SWEEP_ARTIFACTS))
        if unknown:
            print(f"error: unknown artifacts {unknown}; known: "
                  f"{sorted(SWEEP_ARTIFACTS)} or 'all'", file=sys.stderr)
            return 2

    store_root = (
        args.store
        or os.environ.get("REPRO_SWEEP_STORE")
        or str(Path(__file__).resolve().parent / "sweep-artifacts")
    )
    store = ArtifactStore(store_root)
    print(f"sweep artifact store: {store.root} ({len(store)} cached runs)")

    from repro.sweep import SweepError

    selected = list(SWEEP_ARTIFACTS) if run_all else names
    reports: Dict[str, SweepReport] = {}
    for name in selected:
        try:
            reports[name] = SWEEP_ARTIFACTS[name](store, args.workers)
        except SweepError as error:
            print(error, file=sys.stderr)
            return 1
        print(reports[name].summary())

    if args.report:
        import json

        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({name: report.to_dict() for name, report in reports.items()},
                       indent=2),
            encoding="utf-8",
        )
        print(f"telemetry written to {path}")

    if run_all and not args.no_pytest:
        import pytest

        here = Path(__file__).resolve().parent
        paths = [str(here / module) for module in PYTEST_ARTIFACTS]
        # The pytest-backed tables run sweeps too: point them at this store.
        os.environ["REPRO_SWEEP_STORE"] = str(store.root)
        print("\nregenerating the remaining tables/figures through pytest...")
        code = pytest.main(["-q", "-s", "-p", "no:cacheprovider", *paths])
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
