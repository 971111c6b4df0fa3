"""Adapters that put every training paradigm behind one interface.

Each adapter builds its underlying system from an
:class:`~repro.experiments.spec.ExperimentSpec`, drives it through the
shared callback-aware ``fit`` loop, and exposes the uniform accessors
``repro.run`` needs to assemble a :class:`~repro.experiments.result.RunResult`.

Every system takes the spec itself (``system_cls(dataset, spec)``) and
keeps it as ``.spec``.  The fields each paradigm reads:

==================  =====================================================
trainer             reads
==================  =====================================================
``ptf``             every section (the full protocol), including
                    ``engine`` (execution scheduler)
``fcf`` / ``fedmf`` ``protocol.rounds``, ``client_local_epochs``,
/ ``metamf``        ``local_learning_rate``, ``client_batch_size``,
                    ``client_fraction``, ``negative_ratio``,
                    ``model.embedding_dim``, ``seed``, ``engine``,
                    ``scenario``
``centralized``     ``model.server_model`` (the trained architecture),
                    ``protocol.rounds`` (epochs), ``server_batch_size``,
                    ``learning_rate``, ``negative_ratio``, ``l2_weight``,
                    ``seed`` (no per-client work, so ``engine`` is unused)
==================  =====================================================
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.centralized.trainer import CentralizedTrainer
from repro.core.protocol import PTFFedRec
from repro.data.dataset import InteractionDataset
from repro.eval.ranking import RankingResult
from repro.experiments.registry import register_trainer
from repro.experiments.result import CommunicationSummary, PrivacySummary
from repro.experiments.spec import ExperimentSpec
from repro.federated.fcf import FCF
from repro.federated.fedmf import FedMF
from repro.federated.metamf import MetaMF
from repro.models.factory import create_model
from repro.tensor.backend import get_backend, use_backend
from repro.utils.rng import RngFactory

#: Sentinel distinguishing "not given — use the spec's evaluation section"
#: from an explicit ``batch_size=None`` (the per-user reference path).
_UNSET = object()


class TrainerAdapter:
    """Uniform facade over one training paradigm.

    Subclasses name their :attr:`system_cls` (built as
    ``system_cls(dataset, spec)``) or override :meth:`_build`; the rest
    of the interface is shared.

    The adapter owns the spec's *backend policy*: model construction,
    training and evaluation all run under ``use_backend(spec.backend)``,
    so a ``backend="numpy32"`` spec builds float32 parameters and steps
    with the fused kernels without any caller involvement.  State
    restoration (:meth:`load_state_dict`) happens under the same policy,
    which is how checkpoint restore rebuilds the original precision.
    """

    name: str = ""
    system_cls = None

    def __init__(self, spec: ExperimentSpec, dataset: InteractionDataset):
        self.spec = spec
        self.dataset = dataset
        self.backend = get_backend(spec.backend)
        with use_backend(self.backend):
            self.system = self._build()

    def _build(self):
        return self.system_cls(self.dataset, self.spec)

    def fit(self, callbacks: Sequence = (), rounds: Optional[int] = None) -> "TrainerAdapter":
        """Run the paradigm's training loop with the shared hooks.

        ``rounds`` limits how many *additional* rounds to run (``None``
        runs the spec's configured count); the resume path uses it to
        finish an interrupted run instead of training past the target.
        """
        with use_backend(self.backend):
            self.system.fit(rounds=rounds, callbacks=callbacks)
        return self

    def evaluate(
        self,
        k: Optional[int] = None,
        max_users: Optional[int] = None,
        batch_size=_UNSET,
    ) -> RankingResult:
        """Ranking metrics with the spec's evaluation settings as defaults.

        ``batch_size`` defaults to ``spec.evaluation.batch_size`` (chunked
        cohort scoring); pass ``None`` explicitly for the per-user
        reference loop — both paths return equal results.
        """
        evaluation = self.spec.evaluation
        with use_backend(self.backend):
            return self.system.evaluate(
                k=k if k is not None else evaluation.k,
                max_users=max_users if max_users is not None else evaluation.max_users,
                batch_size=evaluation.batch_size if batch_size is _UNSET else batch_size,
            )

    def rounds_completed(self) -> int:
        return self.system.rounds_completed

    # ------------------------------------------------------------------
    # Artifacts (checkpointing + serving)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The underlying system's full training state (checkpoint payload)."""
        return self.system.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into the underlying system."""
        with use_backend(self.backend):
            self.system.load_state_dict(state)

    def serving_model(self):
        """The trained global :class:`~repro.models.base.Recommender`.

        This is the model a deployment would answer queries with —
        ``repro.serve.Recommender`` wraps it.  PTF-FedRec serves the
        *server* model (the provider's hidden IP); the parameter-transmission
        baselines and centralized training serve their global model.
        """
        return self.system.model

    @property
    def ledger(self):
        """The communication ledger, or None for ledger-free paradigms."""
        return getattr(self.system, "ledger", None)

    def scenario_engine(self):
        """The system's :class:`~repro.scenario.ScenarioEngine`, if any.

        ``None`` for paradigms without dynamic-federation support (e.g.
        centralized training); the serving layer uses it to gate the item
        catalogue and pick cold-start fallbacks for streamed-in users.
        """
        return getattr(self.system, "scenario", None)

    def communication_summary(self) -> CommunicationSummary:
        return CommunicationSummary.from_ledger(self.ledger)

    def privacy_summary(self) -> Optional[PrivacySummary]:
        """Privacy audit of the final uploads; None when not applicable."""
        return None


@register_trainer("ptf")
class PTFTrainer(TrainerAdapter):
    """PTF-FedRec itself: the paper's parameter transmission-free protocol."""

    name = "ptf"
    system_cls = PTFFedRec

    def serving_model(self):
        return self.system.server.model

    def privacy_summary(self) -> Optional[PrivacySummary]:
        if not self.spec.evaluation.audit_privacy:
            return None
        report = self.system.audit_privacy(guess_ratio=self.spec.privacy.audit_guess_ratio)
        return PrivacySummary.from_report(report)


@register_trainer("fcf")
class FCFTrainer(TrainerAdapter):
    name = "fcf"
    system_cls = FCF


@register_trainer("fedmf")
class FedMFTrainer(TrainerAdapter):
    name = "fedmf"
    system_cls = FedMF


@register_trainer("metamf")
class MetaMFTrainer(TrainerAdapter):
    name = "metamf"
    system_cls = MetaMF


@register_trainer("centralized")
class CentralizedTrainerAdapter(TrainerAdapter):
    """Centralized training of ``model.server_model`` on the full dataset.

    One "round" is one training epoch, so per-round histories line up with
    the federated paradigms.
    """

    name = "centralized"

    def _build(self) -> CentralizedTrainer:
        spec = self.spec
        kwargs = spec.model.server_model_kwargs()
        model = create_model(
            spec.model.server_model,
            num_users=self.dataset.num_users,
            num_items=self.dataset.num_items,
            embedding_dim=spec.model.embedding_dim,
            rng=RngFactory(spec.seed).spawn("centralized-model"),
            **kwargs,
        )
        return CentralizedTrainer(model, self.dataset, spec)
