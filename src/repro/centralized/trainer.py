"""Centralized trainer for any :class:`~repro.models.base.Recommender`."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.callbacks import Callback
    from repro.experiments.spec import ExperimentSpec

from repro.core.config import ensure_spec
from repro.data.dataset import InteractionDataset
from repro.data.loaders import BatchIterator
from repro.data.sampling import build_pointwise_samples
from repro.eval.ranking import RankingEvaluator, RankingResult
from repro.eval.scoring import DEFAULT_CHUNK_SIZE
from repro.models.base import Recommender
from repro.nn.losses import PointwiseBCELoss
from repro.optim import Adam
from repro.utils.rng import RngFactory


class CentralizedTrainer:
    """Trains a recommender on the full dataset with pointwise BCE.

    Configured by a ``trainer="centralized"`` spec; one round is one epoch
    (the fields it reads are listed in :mod:`repro.experiments.trainers`).

    Graph models (NGCF/LightGCN) automatically receive the training
    interaction graph before the first epoch, matching how they are used
    in centralized deployments.
    """

    def __init__(
        self,
        model: Recommender,
        dataset: InteractionDataset,
        spec: Optional["ExperimentSpec"] = None,
    ):
        self.model = model
        self.dataset = dataset
        self.spec = ensure_spec(spec, "centralized")
        self._rngs = RngFactory(self.spec.seed)
        protocol = self.spec.protocol
        self.optimizer = Adam(model.parameters(), lr=protocol.learning_rate)
        self.loss_fn = PointwiseBCELoss(l2_weight=protocol.l2_weight)
        self.loss_history: List[float] = []
        if hasattr(model, "set_interaction_graph"):
            model.set_interaction_graph(dataset.train_pairs)

    def train_epoch(self, epoch: int) -> float:
        """Run one epoch of pointwise training; returns the mean batch loss."""
        sample_rng = self._rngs.spawn_indexed("centralized-sampling", epoch)
        batch_rng = self._rngs.spawn_indexed("centralized-batching", epoch)
        protocol = self.spec.protocol
        users, items, labels = build_pointwise_samples(
            self.dataset, negative_ratio=protocol.negative_ratio, rng=sample_rng
        )
        iterator = BatchIterator(
            users, items, labels, batch_size=protocol.server_batch_size, rng=batch_rng
        )
        self.model.train()
        regularized = list(self.model.parameters()) if protocol.l2_weight > 0 else []
        total_loss = 0.0
        batches = 0
        for batch_users, batch_items, batch_labels in iterator:
            predictions = self.model.score(batch_users, batch_items)
            loss = self.loss_fn(predictions, batch_labels, regularized=regularized)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            total_loss += loss.item()
            batches += 1
        mean_loss = total_loss / max(batches, 1)
        self.loss_history.append(mean_loss)
        return mean_loss

    @property
    def rounds_completed(self) -> int:
        return len(self.loss_history)

    def fit(
        self,
        rounds: Optional[int] = None,
        callbacks: Optional[Sequence["Callback"]] = None,
    ) -> "CentralizedTrainer":
        """Train for the configured number of epochs (or ``rounds`` more).

        Each epoch counts as one "round" for the shared training hooks, so
        callbacks (eval-every-k, early stopping, progress logging) behave
        identically across the centralized and federated paradigms.
        """
        from repro.experiments.callbacks import CallbackList

        hooks = CallbackList(callbacks)
        start = self.rounds_completed
        total = rounds if rounds is not None else self.spec.protocol.rounds
        hooks.on_fit_start(self)
        for epoch in range(start, start + total):
            hooks.on_round_start(self, epoch)
            mean_loss = self.train_epoch(epoch)
            hooks.on_round_end(self, epoch, {"loss": mean_loss})
            if hooks.should_stop:
                break
        hooks.on_fit_end(self)
        return self

    def evaluate(
        self,
        k: int = 20,
        max_users: Optional[int] = None,
        batch_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    ) -> RankingResult:
        """Evaluate the trained model on the dataset's test split.

        ``batch_size`` chooses the evaluator's execution path (chunked
        cohort scoring by default, the per-user reference loop with
        ``None``); both return equal results.
        """
        evaluator = RankingEvaluator(self.dataset, k=k)
        return evaluator.evaluate(self.model, max_users=max_users, batch_size=batch_size)

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Model, Adam optimizer and per-epoch loss history."""
        return {
            "rounds_completed": self.rounds_completed,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "loss_history": [float(loss) for loss in self.loss_history],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; the next epoch continues
        bit-identically to a run that was never interrupted."""
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.loss_history = [float(loss) for loss in state["loss_history"]]
