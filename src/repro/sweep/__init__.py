"""repro.sweep — declarative, parallel, fingerprint-cached experiment sweeps.

One sweep = a :class:`SweepSpec` (runs from grids / explicit lists /
generators), executed by :class:`Sweep` against a fingerprint-keyed
:class:`ArtifactStore`.  Completed runs never re-execute
— re-invoking a crashed or extended sweep performs only the missing work —
and parallel cached results are ``==`` to a serial uncached pass.

Quickstart::

    from repro.sweep import SweepSpec, final_metrics, run_sweep

    sweep = SweepSpec.from_grid(
        "alpha", base={"trainer": "ptf"}, grid={"alpha": [10, 50, 100]},
    )
    outcome = run_sweep(sweep, store="artifacts/alpha", workers=4)
    print(outcome.report.summary())
    print(final_metrics(outcome.results)["alpha=50"])

Or from the command line: ``python -m repro.sweep sweep.json`` (see
``docs/sweeps.md``).
"""

from repro.sweep.executor import SweepExecutor, default_worker_count
from repro.sweep.report import RunTelemetry, SweepReport
from repro.sweep.runner import Sweep, SweepError, SweepOutcome, final_metrics, run_sweep
from repro.sweep.spec import (
    DatasetSpec,
    RunSpec,
    SweepSpec,
    available_dataset_sources,
    expand_grid,
    register_dataset_source,
)
from repro.sweep.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "DatasetSpec",
    "RunSpec",
    "RunTelemetry",
    "Sweep",
    "SweepError",
    "SweepExecutor",
    "SweepOutcome",
    "SweepReport",
    "SweepSpec",
    "available_dataset_sources",
    "default_worker_count",
    "expand_grid",
    "final_metrics",
    "register_dataset_source",
    "run_sweep",
]
