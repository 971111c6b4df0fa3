"""Command-line entry point: ``python -m repro.sweep <sweep.json>``.

Executes a declarative sweep file (see :meth:`repro.sweep.SweepSpec.from_dict`
for the format and ``docs/sweeps.md`` for a guide), prints every run's
final ranking metrics (:func:`repro.sweep.final_metrics`) as JSON followed
by the one-line summary, and exits:

* ``0`` — every run completed (executed or served from cache),
* ``1`` — one or more runs failed (completed runs stay cached, so fixing
  the failure and re-invoking performs only the missing work), or a
  stored artifact is unreadable (the message names its slot),
* ``2`` — usage error: unreadable sweep file or invalid spec (including
  one that still declares ``stages``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.sweep.runner import Sweep, SweepError, final_metrics
from repro.sweep.spec import SweepSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Parallel, fingerprint-cached experiment sweeps (see docs/sweeps.md)",
    )
    parser.add_argument("sweep", help="path to a declarative sweep JSON file")
    parser.add_argument(
        "--store", default=None,
        help="artifact store directory (default: sweep-artifacts-<name> "
             "next to the sweep file)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all cores, capped at 8; 1 = serial)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the telemetry report JSON to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-run progress lines (the summary still prints)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    sweep_path = Path(args.sweep)
    try:
        spec = SweepSpec.from_json(sweep_path.read_text(encoding="utf-8"))
    except OSError as error:
        print(f"error: cannot read sweep file: {error}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as error:
        print(f"error: invalid sweep spec: {error}", file=sys.stderr)
        return 2

    store = args.store
    if store is None:
        store = str(sweep_path.resolve().parent / f"sweep-artifacts-{spec.name}")

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    sweep = Sweep(spec, store=store, workers=args.workers, progress=progress)
    try:
        outcome = sweep.run()
    except (SweepError, ValueError) as error:
        print(error, file=sys.stderr)
        return 1

    if args.report:
        outcome.report.save(args.report)
    print(json.dumps(final_metrics(outcome.results), indent=2))
    print(outcome.report.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
