"""The PTF-FedRec client (one per user).

Each client owns its raw interaction data and a small local recommender —
the paper assigns the "simplest" publicly known model, NeuMF, to every
client.  A round of client work (Algorithm 1, lines 14-17):

1. train the local model for a few epochs on the private data ``D_i``
   together with the latest server-provided soft labels ``D̃_i`` (Eq. 3),
2. build the upload dataset ``D̂_i`` by sampling a subset of the trained
   items, scoring them with the local model, and applying the configured
   privacy defense (Section III-B2).

The client model indexes a *single* user (itself), so its embedding tables
hold one user row plus the full item catalogue — exactly what would live
on a device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

# repro: disable=backend-purity -- client-side prediction/rating arrays are the paper's exchange format
import numpy as np

from repro.core.config import ensure_spec
from repro.engine.batch import ClientTrainingPlan
from repro.core.privacy import apply_defense, sample_upload_items
from repro.data.sampling import UserBatchSampler, sample_negative_items
from repro.models.base import Recommender
from repro.models.factory import create_model
from repro.nn.losses import PointwiseBCELoss
from repro.optim import Adam
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec


@dataclass
class ClientUpload:
    """The prediction dataset ``D̂_i`` a client sends to the server.

    ``items`` and ``scores`` are the transmitted payload (user id is
    implicit in the connection).  ``true_positive_items`` is **not**
    transmitted — it is the client's full positive interaction set, kept by
    the simulation so that the Top Guess Attack evaluation (Table V) can
    grade how much of the user's private interaction set a curious server
    could infer from the payload alone.
    """

    user_id: int
    items: np.ndarray
    scores: np.ndarray
    true_positive_items: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.items = np.asarray(self.items, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.true_positive_items = np.asarray(self.true_positive_items, dtype=np.int64)
        if self.items.shape != self.scores.shape:
            raise ValueError("items and scores must have the same length")

    @property
    def num_records(self) -> int:
        return int(self.items.size)


class PTFClient:
    """One federated participant holding private data and a local model."""

    def __init__(
        self,
        user_id: int,
        num_items: int,
        positive_items: np.ndarray,
        config: Optional["ExperimentSpec"],
        rngs: RngFactory,
    ):
        self.user_id = int(user_id)
        self.num_items = int(num_items)
        self.positive_items = np.asarray(positive_items, dtype=np.int64)
        self.spec = ensure_spec(config)
        self._rngs = rngs

        model_rng = rngs.spawn_indexed("client-model", self.user_id)
        self.model: Recommender = create_model(
            self.spec.model.client_model,
            num_users=1,
            num_items=num_items,
            embedding_dim=self.spec.model.embedding_dim,
            rng=model_rng,
        )
        self.optimizer = Adam(self.model.parameters(), lr=self.spec.protocol.learning_rate)
        self.loss_fn = PointwiseBCELoss()

        # Server-provided soft labels (D̃_i); empty until the first dispersal.
        self.server_items: np.ndarray = np.empty(0, dtype=np.int64)
        self.server_scores: np.ndarray = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------
    # Local training (Eq. 3)
    # ------------------------------------------------------------------
    def training_plan(self, round_index: int) -> Optional[ClientTrainingPlan]:
        """Materialize this round's local-training batches, or ``None``.

        The plan draws every epoch's negatives and shuffles from the
        client's dedicated RNG stream in exactly the order the fit loop
        consumes them (model updates draw no randomness, so materializing
        up front cannot perturb any stream).  The execution engine stacks
        equally shaped plans across clients and runs them as one
        vectorized cohort; clients with no positive interactions have no
        work and return ``None``.
        """
        if self.positive_items.size == 0:
            return None
        protocol = self.spec.protocol
        rng = self._rngs.spawn_indexed("client-training", self.user_id * 1_000_003 + round_index)
        sampler = UserBatchSampler(
            num_items=self.num_items,
            positive_items=self.positive_items,
            negative_ratio=protocol.negative_ratio,
            batch_size=protocol.client_batch_size,
            rng=rng,
        )
        epochs = [
            list(sampler.epoch(self.server_items, self.server_scores))
            for _ in range(protocol.client_local_epochs)
        ]
        return ClientTrainingPlan(user_id=self.user_id, epochs=epochs)

    def local_train(self, round_index: int) -> float:
        """Train the local model on ``D_i ∪ D̃_i``; returns the mean loss."""
        plan = self.training_plan(round_index)
        if plan is None:
            return 0.0
        self.model.train()
        total_loss = 0.0
        batches = 0
        for epoch_batches in plan.epochs:
            for items, labels in epoch_batches:
                users = np.zeros(len(items), dtype=np.int64)
                predictions = self.model.score(users, items)
                loss = self.loss_fn(predictions, labels)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                total_loss += loss.item()
                batches += 1
        return total_loss / max(batches, 1)

    # ------------------------------------------------------------------
    # Upload construction (Section III-B2)
    # ------------------------------------------------------------------
    def build_upload(self, round_index: int) -> ClientUpload:
        """Construct the privacy-protected prediction dataset ``D̂_i``."""
        privacy = self.spec.privacy
        rng = self._rngs.spawn_indexed("client-upload", self.user_id * 1_000_003 + round_index)

        # The trained item pool V_i^t: this round's positives plus sampled
        # negatives at the configured negative-sampling ratio.
        negatives = np.unique(
            sample_negative_items(
                self.num_items,
                self.positive_items,
                self.spec.protocol.negative_ratio * max(self.positive_items.size, 1),
                rng,
            )
        )

        if privacy.defense in ("none", "ldp"):
            # Upload predictions for the whole trained pool (the vulnerable
            # construction the paper uses as its "No Defense" baseline).
            selected_positive = self.positive_items.copy()
            selected_negative = negatives
        else:
            beta = rng.uniform(*privacy.beta_range)
            gamma = rng.uniform(*privacy.gamma_range)
            selected_positive, selected_negative = sample_upload_items(
                self.positive_items, negatives, beta, gamma, rng
            )

        items = np.concatenate([selected_positive, selected_negative])
        positive_mask = np.concatenate([
            np.ones(selected_positive.size, dtype=bool),
            np.zeros(selected_negative.size, dtype=bool),
        ])
        scores = self._predict(items)
        scores = apply_defense(
            privacy.defense,
            scores,
            positive_mask,
            swap_rate=privacy.swap_rate,
            ldp_scale=privacy.ldp_scale,
            rng=rng,
        )
        return ClientUpload(
            user_id=self.user_id,
            items=items,
            scores=scores,
            true_positive_items=self.positive_items.copy(),
        )

    def _predict(self, items: np.ndarray) -> np.ndarray:
        users = np.zeros(len(items), dtype=np.int64)
        return self.model.score_pairs(users, items)

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the client mutates across rounds.

        Covers the local model (parameters and update-count buffers), the
        Adam optimizer's moment estimates, and the latest server-provided
        soft labels ``D̃_i``.  The client's construction-time identity
        (user id, positives, spec) is *not* included — it is rebuilt from
        the spec and dataset, which the checkpoint manifest carries.
        """
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "server_items": self.server_items.copy(),
            "server_scores": self.server_scores.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this client."""
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.receive_dispersal(state["server_items"], state["server_scores"])

    # ------------------------------------------------------------------
    # Dispersal intake (Section III-B3)
    # ------------------------------------------------------------------
    def receive_dispersal(self, items: np.ndarray, scores: np.ndarray) -> None:
        """Replace the local copy of the server-provided dataset ``D̃_i``."""
        items = np.asarray(items, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if items.shape != scores.shape:
            raise ValueError("items and scores must have the same length")
        self.server_items = items
        self.server_scores = scores

    def __repr__(self) -> str:
        return (
            f"PTFClient(user={self.user_id}, positives={self.positive_items.size}, "
            f"server_labels={self.server_items.size})"
        )
