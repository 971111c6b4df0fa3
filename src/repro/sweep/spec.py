"""Declarative sweep specifications: grids of experiments.

A :class:`SweepSpec` names every run a sweep performs.  Runs come from
three constructions, freely mixed:

* an explicit list of experiments (:meth:`SweepSpec.from_dict` ``experiments``),
* a cartesian ``grid={field: [values, ...]}`` expansion over a ``base``
  :class:`~repro.experiments.spec.ExperimentSpec` — fields are the flat
  names ``ExperimentSpec.replace`` accepts (``alpha=50``,
  ``server_model="ngcf"``, plus ``trainer`` / ``seed`` / ``backend`` and
  the special key ``dataset`` selecting among the sweep's datasets),
* a generator: any iterable of :class:`RunSpec` handed straight to the
  :class:`SweepSpec` constructor (Python-only, for programmatic sweeps).

Datasets are declared once, by alias, as :class:`DatasetSpec` entries and
referenced per run.  A dataset spec is a *recipe*, not data: workers
rebuild it deterministically from its source registry entry, so sweep
payloads stay small and a JSON sweep file is fully self-contained.

The orchestrator (:class:`repro.sweep.Sweep`) executes the runs — in
parallel, fingerprint-cached — and returns their results by run id;
combining them is plain Python over ``outcome.results`` (see
:func:`repro.sweep.final_metrics`).

Every spec round-trips through ``to_dict``/``from_dict`` and JSON:

>>> sweep = SweepSpec.from_dict({
...     "name": "alpha-demo",
...     "datasets": {"ml": {"source": "debug", "seed": 7}},
...     "base": {"trainer": "ptf", "protocol": {"rounds": 2}},
...     "grid": {"alpha": [10, 30]},
... })
>>> [run.id for run in sweep.runs]
['alpha=10', 'alpha=30']
>>> SweepSpec.from_dict(sweep.to_dict()).runs[0].experiment.dispersal.alpha
10
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.spec import ExperimentSpec


# ----------------------------------------------------------------------
# Dataset recipes
# ----------------------------------------------------------------------
DatasetBuilder = Callable[["DatasetSpec"], Any]

_DATASET_SOURCES: Dict[str, DatasetBuilder] = {}


def register_dataset_source(name: str, builder: DatasetBuilder,
                            overwrite: bool = False) -> DatasetBuilder:
    """Register a named dataset recipe (``DatasetSpec -> InteractionDataset``).

    Follows the trainer-registry idiom: re-registering an existing name
    raises unless ``overwrite=True``.
    """
    if name in _DATASET_SOURCES and not overwrite:
        raise ValueError(f"dataset source {name!r} is already registered")
    _DATASET_SOURCES[name] = builder
    return builder


def available_dataset_sources() -> Tuple[str, ...]:
    """The registered dataset source names, sorted."""
    return tuple(sorted(_DATASET_SOURCES))


def _build_debug(spec: "DatasetSpec"):
    from repro.data.synthetic import debug_dataset
    from repro.utils.rng import RngFactory

    # Same derivation as the ``repro.run`` default dataset, so a sweep over
    # {"source": "debug", "seed": s} reproduces bare ``repro.run(spec)``.
    return debug_dataset(RngFactory(spec.seed).spawn("experiment-data"), **spec.options)


def _build_mini(spec: "DatasetSpec"):
    from repro.data.synthetic import MINI_SPECS, generate_dataset
    from repro.utils.rng import RngFactory

    if spec.name not in MINI_SPECS:
        raise ValueError(f"unknown mini dataset {spec.name!r}; known: {sorted(MINI_SPECS)}")
    # Same derivation as benchmarks/conftest.py::build_dataset, so sweep
    # runs land on the exact datasets the hand-rolled benchmarks used.
    rng = RngFactory(spec.seed).spawn(f"dataset-{spec.name}")
    return generate_dataset(MINI_SPECS[spec.name], rng=rng)


def _build_paper(spec: "DatasetSpec"):
    from repro.data.synthetic import PAPER_SPECS, generate_dataset
    from repro.utils.rng import RngFactory

    if spec.name not in PAPER_SPECS:
        raise ValueError(f"unknown paper dataset {spec.name!r}; known: {sorted(PAPER_SPECS)}")
    rng = RngFactory(spec.seed).spawn(f"dataset-{spec.name}")
    return generate_dataset(PAPER_SPECS[spec.name], rng=rng)


register_dataset_source("debug", _build_debug)
register_dataset_source("mini", _build_mini)
register_dataset_source("paper", _build_paper)


@dataclass(frozen=True)
class DatasetSpec:
    """A deterministic dataset recipe: source registry entry + parameters.

    ``source`` names a builder registered with
    :func:`register_dataset_source` (``"debug"``, ``"mini"``, ``"paper"``
    ship built in); ``name`` selects a preset within the source (e.g.
    ``"movielens-mini"``); ``seed`` keys the synthesis RNG; ``options``
    are extra builder kwargs (``debug`` accepts ``num_users`` etc.).
    """

    source: str = "debug"
    name: Optional[str] = None
    seed: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source not in _DATASET_SOURCES:
            raise ValueError(
                f"unknown dataset source {self.source!r}; "
                f"registered sources: {available_dataset_sources()}"
            )
        # Freeze options into a plain dict so ``key()`` is stable.
        object.__setattr__(self, "options", dict(self.options))
        object.__setattr__(self, "seed", int(self.seed))

    def build(self):
        """Materialize the dataset (deterministic for a fixed spec)."""
        return _DATASET_SOURCES[self.source](self)

    def key(self) -> str:
        """Canonical identity string (the per-worker dataset-cache key)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"source": self.source, "seed": self.seed}
        if self.name is not None:
            data["name"] = self.name
        if self.options:
            data["options"] = dict(self.options)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DatasetSpec":
        known = {"source", "name", "seed", "options"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown DatasetSpec fields {unknown}; known: {sorted(known)}")
        return cls(**dict(data))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One node of the sweep's run layer: an experiment on a dataset."""

    id: str
    experiment: ExperimentSpec
    dataset: DatasetSpec = field(default_factory=DatasetSpec)

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ValueError(f"run id must be a non-empty string, got {self.id!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.experiment.to_dict(),
            "dataset": self.dataset.to_dict(),
        }


def _format_grid_value(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "x".join(_format_grid_value(v) for v in value)
    return str(value)


def expand_grid(
    base: ExperimentSpec,
    grid: Mapping[str, Sequence[Any]],
    datasets: Optional[Mapping[str, DatasetSpec]] = None,
    default_dataset: Optional[DatasetSpec] = None,
) -> List[RunSpec]:
    """Cartesian expansion of flat-field value lists over a base spec.

    Grid keys are the flat field names :meth:`ExperimentSpec.replace`
    accepts (every section field plus ``trainer`` / ``seed`` /
    ``backend``), and the special key ``"dataset"`` whose values are
    aliases into ``datasets``.  Axis order is preserved, so run ids are
    stable: ``"alpha=10,dataset=ml"`` style, one ``field=value`` pair per
    axis.
    """
    datasets = dict(datasets or {})
    default_dataset = default_dataset if default_dataset is not None else DatasetSpec()
    axes = [(str(key), list(values)) for key, values in grid.items()]
    for key, values in axes:
        if not values:
            raise ValueError(f"grid axis {key!r} has no values")
    runs: List[RunSpec] = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = dict(zip((key for key, _ in axes), combo))
        dataset = default_dataset
        alias = overrides.pop("dataset", None)
        if alias is not None:
            if alias not in datasets:
                raise ValueError(
                    f"grid dataset alias {alias!r} is not declared; "
                    f"known aliases: {sorted(datasets)}"
                )
            dataset = datasets[alias]
        experiment = base.replace(**overrides) if overrides else base
        run_id = ",".join(
            f"{key}={_format_grid_value(value)}" for key, value in zip(
                (key for key, _ in axes), combo
            )
        )
        runs.append(RunSpec(id=run_id or "base", experiment=experiment, dataset=dataset))
    return runs


@dataclass
class SweepSpec:
    """Everything one sweep does: its named runs."""

    name: str
    runs: List[RunSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"sweep name must be a non-empty string, got {self.name!r}")
        self.runs = list(self.runs)
        if not self.runs:
            raise ValueError("a sweep needs at least one run")
        seen: set = set()
        for run in self.runs:
            if run.id in seen:
                raise ValueError(f"duplicate run id {run.id!r}")
            seen.add(run.id)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        name: str,
        base: Union[ExperimentSpec, Mapping],
        grid: Mapping[str, Sequence[Any]],
        dataset: Union[DatasetSpec, Mapping, None] = None,
        datasets: Optional[Mapping[str, Union[DatasetSpec, Mapping]]] = None,
    ) -> "SweepSpec":
        """Build a sweep from a base spec and a cartesian grid (see module doc)."""
        if not isinstance(base, ExperimentSpec):
            base = ExperimentSpec.from_dict(base)
        named = {
            alias: ds if isinstance(ds, DatasetSpec) else DatasetSpec.from_dict(ds)
            for alias, ds in (datasets or {}).items()
        }
        if dataset is not None and not isinstance(dataset, DatasetSpec):
            dataset = DatasetSpec.from_dict(dataset)
        runs = expand_grid(base, grid, datasets=named, default_dataset=dataset)
        return cls(name=name, runs=runs)

    @classmethod
    def from_experiments(
        cls,
        name: str,
        experiments: Iterable[Tuple[str, ExperimentSpec, DatasetSpec]],
    ) -> "SweepSpec":
        """Build a sweep from a generator of ``(id, experiment, dataset)``."""
        runs = [RunSpec(id=i, experiment=e, dataset=d) for i, e, d in experiments]
        return cls(name=name, runs=runs)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation."""
        return {
            "name": self.name,
            "experiments": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Parse the declarative sweep format (see :mod:`repro.sweep` docs).

        Accepted keys: ``name``, ``datasets`` (alias -> dataset spec),
        ``dataset`` (default dataset, alias or inline spec), ``base`` +
        ``grid`` (cartesian expansion), ``experiments`` (explicit list;
        each entry carries ``spec`` — a full experiment dict — or
        ``overrides`` — flat fields applied to ``base`` — plus optional
        ``id`` and ``dataset`` alias).

        Sweeps no longer declare aggregation ``stages``: a document that
        still lists any is rejected with a pointer to
        :func:`repro.sweep.final_metrics`.  An empty ``stages`` list (which
        older versions of :meth:`to_dict` always wrote) is accepted.
        """
        remaining = dict(data)
        if remaining.pop("stages", None):
            raise ValueError(
                "sweep 'stages' (and their 'needs') were removed; every run's "
                "result is in outcome.results, and "
                "repro.sweep.final_metrics(outcome.results) gives what the "
                '"final-metrics" stage did'
            )
        name = remaining.pop("name", None)
        if not name:
            raise ValueError("sweep spec needs a 'name'")
        datasets = {
            alias: DatasetSpec.from_dict(ds)
            for alias, ds in (remaining.pop("datasets", None) or {}).items()
        }

        def resolve_dataset(value, context: str) -> DatasetSpec:
            if isinstance(value, str):
                if value not in datasets:
                    raise ValueError(
                        f"{context}: unknown dataset alias {value!r}; "
                        f"known aliases: {sorted(datasets)}"
                    )
                return datasets[value]
            return DatasetSpec.from_dict(value)

        default_dataset = remaining.pop("dataset", None)
        default_dataset = (
            resolve_dataset(default_dataset, "sweep default dataset")
            if default_dataset is not None
            else (next(iter(datasets.values())) if len(datasets) == 1 else DatasetSpec())
        )

        base = remaining.pop("base", None)
        base_spec = ExperimentSpec.from_dict(base) if base is not None else None

        runs: List[RunSpec] = []
        grid = remaining.pop("grid", None)
        if grid is not None:
            if base_spec is None:
                raise ValueError("a 'grid' needs a 'base' experiment spec to expand over")
            runs.extend(expand_grid(base_spec, grid, datasets=datasets,
                                    default_dataset=default_dataset))

        for index, entry in enumerate(remaining.pop("experiments", None) or []):
            entry = dict(entry)
            run_id = entry.pop("id", None)
            dataset = entry.pop("dataset", None)
            dataset = (
                resolve_dataset(dataset, f"experiments[{index}]")
                if dataset is not None else default_dataset
            )
            if "spec" in entry:
                experiment = ExperimentSpec.from_dict(entry.pop("spec"))
            elif "overrides" in entry:
                if base_spec is None:
                    raise ValueError(
                        f"experiments[{index}] uses 'overrides' but the sweep has no 'base'"
                    )
                experiment = base_spec.replace(**entry.pop("overrides"))
            else:
                raise ValueError(
                    f"experiments[{index}] needs a 'spec' or 'overrides' entry"
                )
            if entry:
                raise ValueError(
                    f"experiments[{index}] has unknown fields {sorted(entry)}"
                )
            runs.append(RunSpec(
                id=run_id if run_id is not None else f"run-{index}",
                experiment=experiment,
                dataset=dataset,
            ))

        if remaining:
            raise ValueError(
                f"unknown SweepSpec fields {sorted(remaining)}; known: "
                "['name', 'datasets', 'dataset', 'base', 'grid', 'experiments']"
            )
        return cls(name=str(name), runs=runs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON document (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a sweep from :meth:`to_json` output or a hand-written file."""
        return cls.from_dict(json.loads(text))
