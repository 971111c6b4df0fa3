"""Composable experiment specification — the canonical configuration API.

An :class:`ExperimentSpec` describes one training run in any paradigm:
PTF-FedRec itself, the parameter-transmission baselines (FCF, FedMF,
MetaMF), or centralized training.  It is assembled from small sections so
that sweeps can override one concern without re-stating the others:

* :class:`ModelSpec` — which architectures the client and server run,
* :class:`ProtocolSpec` — rounds, epochs, batching and learning rates,
* :class:`PrivacySpec` — the upload defense (Section III-B2) and audit,
* :class:`DispersalSpec` — the server's dispersed dataset ``D̃_i`` (Eq. 9),
* :class:`EvalSpec` — ranking depth and in-training evaluation cadence,
* :class:`~repro.engine.EngineSpec` — *how* the per-round client work is
  executed (serial / batched); purely a performance choice,
  since every scheduler is bit-identical on a fixed seed,
* :class:`~repro.scenario.ScenarioSpec` — dynamic-federation fault
  injection (churn, stragglers, async aggregation, streaming arrivals);
  disabled by default, in which case runs are bit-identical to a
  scenario-free build.

Every spec round-trips losslessly through ``to_dict``/``from_dict`` and
JSON, validates its fields on construction, and names the trainer that
:func:`repro.run` should dispatch to (see
:mod:`repro.experiments.registry`):

>>> spec = ExperimentSpec(trainer="ptf", model={"embedding_dim": 16})
>>> spec.model.embedding_dim
16
>>> ExperimentSpec.from_json(spec.to_json()) == spec
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.config import DEFENSE_MODES, DISPERSAL_MODES
from repro.engine.spec import EngineSpec
from repro.eval.scoring import DEFAULT_CHUNK_SIZE
from repro.scenario.spec import ScenarioSpec


def _as_int_tuple(value) -> Tuple[int, ...]:
    return tuple(int(v) for v in value)


def _as_float_pair(value) -> Tuple[float, float]:
    pair = tuple(float(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"expected a (low, high) pair, got {value!r}")
    return pair


@dataclass
class ModelSpec:
    """Which architectures the participants run.

    ``client_model`` is the public on-device model (the paper fixes NeuMF);
    ``server_model`` is the provider's hidden model for PTF-FedRec and the
    trained model for centralized runs.  The parameter-transmission
    baselines carry their architecture in the trainer name and only read
    ``embedding_dim``.
    """

    client_model: str = "neumf"
    server_model: str = "ngcf"
    embedding_dim: int = 32
    client_mlp_layers: Tuple[int, ...] = (64, 32, 16)
    server_num_layers: int = 3

    def __post_init__(self) -> None:
        self.client_mlp_layers = _as_int_tuple(self.client_mlp_layers)
        if not self.client_model or not isinstance(self.client_model, str):
            raise ValueError(f"client_model must be a non-empty string, got {self.client_model!r}")
        if not self.server_model or not isinstance(self.server_model, str):
            raise ValueError(f"server_model must be a non-empty string, got {self.server_model!r}")
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if self.server_num_layers <= 0:
            raise ValueError(f"server_num_layers must be positive, got {self.server_num_layers}")
        if any(width <= 0 for width in self.client_mlp_layers):
            raise ValueError(f"client_mlp_layers must be positive, got {self.client_mlp_layers}")

    def server_model_kwargs(self) -> Dict[str, Any]:
        """Extra ``create_model`` kwargs the server architecture needs.

        Single source of the per-architecture special cases (graph models
        take ``num_layers``, NeuMF takes ``mlp_layers``), shared by the PTF
        server and the centralized trainer adapter.
        """
        name = self.server_model.lower()
        kwargs: Dict[str, Any] = {}
        if name in ("ngcf", "lightgcn"):
            kwargs["num_layers"] = self.server_num_layers
        if name == "neumf":
            kwargs["mlp_layers"] = self.client_mlp_layers
        return kwargs


@dataclass
class ProtocolSpec:
    """Round structure, batching and optimization across all paradigms.

    ``rounds`` is the number of global rounds for the federated trainers
    and the number of epochs for centralized training, so per-round metric
    histories line up across paradigms.  ``local_learning_rate`` and
    ``l2_weight`` only matter for the parameter-transmission baselines and
    centralized training respectively.
    """

    rounds: int = 20
    client_fraction: float = 1.0
    client_local_epochs: int = 5
    server_epochs: int = 2
    client_batch_size: int = 64
    server_batch_size: int = 1024
    learning_rate: float = 0.001
    local_learning_rate: float = 0.05
    negative_ratio: int = 4
    l2_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError(f"client_fraction must be in (0, 1], got {self.client_fraction}")
        # Zero epochs are allowed (the corresponding training leg is simply
        # skipped — a supported ablation the pre-spec config also accepted).
        if self.client_local_epochs < 0:
            raise ValueError(
                f"client_local_epochs must be non-negative, got {self.client_local_epochs}"
            )
        if self.server_epochs < 0:
            raise ValueError(f"server_epochs must be non-negative, got {self.server_epochs}")
        if self.client_batch_size <= 0:
            raise ValueError(f"client_batch_size must be positive, got {self.client_batch_size}")
        if self.server_batch_size <= 0:
            raise ValueError(f"server_batch_size must be positive, got {self.server_batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.local_learning_rate <= 0.0:
            raise ValueError(
                f"local_learning_rate must be positive, got {self.local_learning_rate}"
            )
        if self.negative_ratio < 1:
            raise ValueError(f"negative_ratio must be >= 1, got {self.negative_ratio}")
        if self.l2_weight < 0.0:
            raise ValueError(f"l2_weight must be non-negative, got {self.l2_weight}")


@dataclass
class PrivacySpec:
    """The client-side upload defense and the privacy audit settings."""

    defense: str = "sampling+swapping"
    beta_range: Tuple[float, float] = (0.1, 1.0)
    gamma_range: Tuple[float, float] = (1.0, 4.0)
    swap_rate: float = 0.1
    ldp_scale: float = 0.2
    audit_guess_ratio: float = 0.2

    def __post_init__(self) -> None:
        self.beta_range = _as_float_pair(self.beta_range)
        self.gamma_range = _as_float_pair(self.gamma_range)
        if self.defense not in DEFENSE_MODES:
            raise ValueError(f"defense must be one of {DEFENSE_MODES}, got {self.defense!r}")
        if not 0.0 <= self.swap_rate <= 1.0:
            raise ValueError(f"swap_rate must be in [0, 1], got {self.swap_rate}")
        low, high = self.beta_range
        if not 0.0 < low <= high <= 1.0:
            raise ValueError(f"beta_range must satisfy 0 < low <= high <= 1, got {self.beta_range}")
        low, high = self.gamma_range
        if not 0.0 < low <= high:
            raise ValueError(f"gamma_range must satisfy 0 < low <= high, got {self.gamma_range}")
        if self.ldp_scale < 0:
            raise ValueError(f"ldp_scale must be non-negative, got {self.ldp_scale}")
        if not 0.0 < self.audit_guess_ratio <= 1.0:
            raise ValueError(
                f"audit_guess_ratio must be in (0, 1], got {self.audit_guess_ratio}"
            )


@dataclass
class DispersalSpec:
    """The server-dispersed dataset ``D̃_i`` (paper Section III-B3)."""

    alpha: int = 30
    mu: float = 0.5
    mode: str = "confidence+hard"
    graph_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        if self.mode not in DISPERSAL_MODES:
            raise ValueError(f"dispersal_mode must be one of {DISPERSAL_MODES}, got {self.mode!r}")
        if not 0.0 <= self.graph_threshold <= 1.0:
            raise ValueError(f"graph_threshold must be in [0, 1], got {self.graph_threshold}")


@dataclass
class EvalSpec:
    """Ranking evaluation depth and in-training evaluation cadence.

    ``every`` > 0 evaluates the model every that-many rounds during
    training (via the :class:`~repro.experiments.callbacks.EvalEveryK`
    callback) so the per-round history carries ranking metrics; 0 only
    evaluates once after training.  ``verbose`` attaches a progress logger.

    ``batch_size`` sets how many users the full-ranking evaluator scores
    per chunk (see :meth:`repro.eval.RankingEvaluator.evaluate`); ``None``
    selects the per-user reference loop.  Purely an execution choice —
    both paths return equal metrics — so, like the ``engine`` section, it
    may differ freely between otherwise-identical runs.
    """

    k: int = 20
    max_users: Optional[int] = None
    every: int = 0
    audit_privacy: bool = True
    verbose: bool = False
    batch_size: Optional[int] = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_users is not None and self.max_users <= 0:
            raise ValueError(f"max_users must be positive or None, got {self.max_users}")
        if self.every < 0:
            raise ValueError(f"every must be non-negative, got {self.every}")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive or None, got {self.batch_size}"
            )


_SECTION_TYPES: Dict[str, type] = {
    "model": ModelSpec,
    "protocol": ProtocolSpec,
    "privacy": PrivacySpec,
    "dispersal": DispersalSpec,
    "evaluation": EvalSpec,
    "engine": EngineSpec,
    "scenario": ScenarioSpec,
}

#: Flat field name -> (section name, attribute name).  Lets callers address
#: any spec field without spelling out the section.
_FLAT_FIELDS: Dict[str, Tuple[str, str]] = {
    f.name: (section, f.name)
    for section, section_cls in _SECTION_TYPES.items()
    for f in fields(section_cls)
}
_FLAT_FIELDS["dispersal_mode"] = ("dispersal", "mode")  # reads better than bare "mode"


def _section_from_dict(section_cls: type, data: Mapping[str, Any]):
    if section_cls is EngineSpec:
        # Stored specs may carry execution-only knobs that were removed
        # (``workers`` with the multiprocess scheduler, ``max_cohort`` and
        # ``fallback`` once ``shard_size`` became the one cohort bound);
        # drop them so those specs stay loadable.
        data = {key: value for key, value in data.items()
                if key not in ("workers", "max_cohort", "fallback")}
        if data.get("scheduler") == "multiprocess":
            raise ValueError(
                'the "multiprocess" scheduler was removed; use scheduler="batched" '
                "(faster on every measured workload) or \"serial\""
            )
    known = {f.name for f in fields(section_cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {section_cls.__name__} fields {unknown}; known fields: {sorted(known)}"
        )
    return section_cls(**dict(data))


def _jsonify(value):
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


def _section_to_dict(section) -> Dict[str, Any]:
    return {f.name: _jsonify(getattr(section, f.name)) for f in fields(section)}


@dataclass
class ExperimentSpec:
    """One fully described experiment: a trainer name plus config sections.

    ``trainer`` selects the paradigm from the trainer registry (``"ptf"``,
    ``"fcf"``, ``"fedmf"``, ``"metamf"``, ``"centralized"``, or anything
    registered with :func:`repro.experiments.register_trainer`).  Sections
    may be given as instances or plain dicts:

    >>> spec = ExperimentSpec(trainer="ptf", model={"embedding_dim": 16},
    ...                       engine={"scheduler": "batched"})
    >>> spec.engine.scheduler
    'batched'
    >>> spec.replace(alpha=50).dispersal.alpha
    50

    The ``engine`` section never changes results — all schedulers are
    bit-identical on a fixed seed — so sweeps may freely mix execution
    strategies (``repro.run(spec, dataset)`` runs any of them).

    ``backend`` names the tensor backend (:mod:`repro.tensor.backend`)
    the run computes under: ``"numpy"`` (default, float64, bit-stable
    reference) or ``"numpy32"`` (float32 + fused optimizer kernels, fast).
    Unlike ``engine``, the backend *is* part of the arithmetic — resuming a
    checkpoint under a different backend is rejected.

    >>> ExperimentSpec(trainer="ptf", backend="numpy32").backend
    'numpy32'
    """

    trainer: str = "ptf"
    seed: int = 0
    backend: Optional[str] = None
    model: ModelSpec = field(default_factory=ModelSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    privacy: PrivacySpec = field(default_factory=PrivacySpec)
    dispersal: DispersalSpec = field(default_factory=DispersalSpec)
    evaluation: EvalSpec = field(default_factory=EvalSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def __post_init__(self) -> None:
        for name, section_cls in _SECTION_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):
                setattr(self, name, _section_from_dict(section_cls, value))
            elif not isinstance(value, section_cls):
                raise ValueError(
                    f"{name} must be a {section_cls.__name__} or a mapping, got {type(value).__name__}"
                )
        if not isinstance(self.trainer, str) or not self.trainer:
            raise ValueError(f"trainer must be a non-empty string, got {self.trainer!r}")
        from repro.experiments.registry import available_trainers, is_registered

        if not is_registered(self.trainer):
            raise ValueError(
                f"unknown trainer {self.trainer!r}; registered trainers: {available_trainers()}"
            )
        # ``backend=None`` adopts the session's active backend (so e.g. a
        # CI leg exporting REPRO_BACKEND=numpy32 runs every default-spec
        # experiment under the fast backend); the serialized spec always
        # records a concrete, validated backend name.
        from repro.tensor.backend import resolve_backend_name

        self.backend = resolve_backend_name(self.backend)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_flat(cls, trainer: str = "ptf", seed: int = 0,
                  backend: Optional[str] = None, **overrides) -> "ExperimentSpec":
        """Build a spec from flat field names (``alpha=30, defense="ldp"``).

        Every section field can be addressed by its bare name; the
        ``dispersal_mode`` alias maps to ``dispersal.mode``.  A convenient
        way to write tests and sweeps over a handful of fields.
        """
        sections: Dict[str, Dict[str, Any]] = {name: {} for name in _SECTION_TYPES}
        for key, value in overrides.items():
            target = _FLAT_FIELDS.get(key)
            if target is None:
                raise ValueError(
                    f"unknown experiment field {key!r}; known fields: {sorted(_FLAT_FIELDS)}"
                )
            section, attr = target
            sections[section][attr] = value
        return cls(trainer=trainer, seed=seed, backend=backend, **{
            name: _section_from_dict(section_cls, sections[name])
            for name, section_cls in _SECTION_TYPES.items()
        })

    def replace(self, **flat_overrides) -> "ExperimentSpec":
        """Return a copy with flat field overrides applied (sweep helper)."""
        data = self.to_dict()
        for key, value in flat_overrides.items():
            if key in ("trainer", "seed", "backend"):
                data[key] = value
                continue
            target = _FLAT_FIELDS.get(key)
            if target is None:
                raise ValueError(
                    f"unknown experiment field {key!r}; known fields: {sorted(_FLAT_FIELDS)}"
                )
            section, attr = target
            data[section][attr] = _jsonify(value)
        return ExperimentSpec.from_dict(data)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested, JSON-safe dict representation (tuples become lists)."""
        data: Dict[str, Any] = {
            "trainer": self.trainer, "seed": self.seed, "backend": self.backend,
        }
        for name in _SECTION_TYPES:
            data[name] = _section_to_dict(getattr(self, name))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys with ValueError."""
        remaining = dict(data)
        kwargs: Dict[str, Any] = {}
        for name, section_cls in _SECTION_TYPES.items():
            if name in remaining:
                kwargs[name] = _section_from_dict(section_cls, remaining.pop(name))
        for name in ("trainer", "seed", "backend"):
            if name in remaining:
                kwargs[name] = remaining.pop(name)
        if remaining:
            raise ValueError(
                f"unknown ExperimentSpec fields {sorted(remaining)}; "
                f"known: ['trainer', 'seed', 'backend'] + {sorted(_SECTION_TYPES)}"
            )
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self, dataset_fingerprint: Optional[str] = None) -> str:
        """Content hash identifying the *results* this spec determines.

        The canonical (sorted-key, separator-stable) JSON of the spec is
        hashed together with the backend name and — when given — the
        dataset's SHA-256 (see :func:`repro.artifacts.dataset_fingerprint`),
        so equal fingerprints mean "same trainer, same arithmetic, same
        data": the artifact of one run can stand in for the other.  This is
        the cache key of the :mod:`repro.sweep` orchestrator.

        Fields that provably cannot change results are *excluded*, so a
        cached artifact stays valid across execution strategies:

        * the whole ``engine`` section — every scheduler, payload format
          and shard size is bit-identical on a fixed seed (the PR 2/PR 7
          contract, asserted by ``tests/test_scale_identity.py``),
        * ``evaluation.batch_size`` — chunked and per-user ranking return
          equal metrics (``tests/test_eval_batched.py``),
        * ``evaluation.verbose`` — pure logging.

        Everything else participates: a changed knob (seed, any protocol /
        privacy / dispersal / scenario field, evaluation depth or cadence,
        backend) changes the fingerprint and invalidates exactly the runs
        it touches.

        >>> a = ExperimentSpec(trainer="ptf")
        >>> b = a.replace(alpha=50)
        >>> a.fingerprint() == a.replace(scheduler="batched").fingerprint()
        True
        >>> a.fingerprint() == b.fingerprint()
        False
        """
        data = self.to_dict()
        data.pop("engine", None)
        evaluation = data.get("evaluation", {})
        evaluation.pop("batch_size", None)
        evaluation.pop("verbose", None)
        payload = {
            "spec": data,
            "backend": self.backend,
            "dataset": dataset_fingerprint,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
