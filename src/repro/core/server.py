"""The PTF-FedRec central server.

The server owns the service provider's "elaborately designed" model — the
intellectual property the framework hides.  Per round (Algorithm 1, lines
9-12) it:

1. trains its model on the pooled client uploads ``{D̂_i}`` with the
   soft-label cross entropy of Eq. 5,
2. builds, for every participating client, a dispersed dataset ``D̃_i`` of
   α items — a µ fraction chosen by *confidence* (items whose embeddings
   were updated most often) and the rest chosen as *hard* items (highest
   predicted score for that user), both excluding items the client just
   uploaded (Eq. 9) — and sends back its predictions for them.

Graph-based server models (NGCF / LightGCN) need an interaction graph to
propagate over, but the server never sees raw interactions; it therefore
maintains a surrogate graph built from high-score pairs accumulated from
the uploads, as described in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

# repro: disable=backend-purity -- server-side aggregation over uploaded prediction arrays
import numpy as np

from repro.core.client import ClientUpload
from repro.core.config import ensure_spec
from repro.data.loaders import BatchIterator
from repro.models.base import Recommender
from repro.models.factory import create_model
from repro.models.graph import pairs_from_scores
from repro.nn.losses import PointwiseBCELoss
from repro.optim import Adam
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec


@dataclass
class DispersedDataset:
    """The soft-label dataset ``D̃_i`` the server sends to one client."""

    user_id: int
    items: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.items = np.asarray(self.items, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.items.shape != self.scores.shape:
            raise ValueError("items and scores must have the same length")

    @property
    def num_records(self) -> int:
        return int(self.items.size)


class PTFServer:
    """Holds and trains the hidden server-side recommendation model."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        config: Optional["ExperimentSpec"],
        rngs: RngFactory,
    ):
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.spec = ensure_spec(config)
        self._rngs = rngs

        model_spec = self.spec.model
        kwargs = model_spec.server_model_kwargs()
        self.model: Recommender = create_model(
            model_spec.server_model,
            num_users=num_users,
            num_items=num_items,
            embedding_dim=model_spec.embedding_dim,
            rng=rngs.spawn("server-model"),
            **kwargs,
        )
        self.optimizer = Adam(self.model.parameters(), lr=self.spec.protocol.learning_rate)
        self.loss_fn = PointwiseBCELoss()

        # Surrogate interaction graph accumulated from uploaded predictions
        # (only used when the server model is graph-based).
        self._graph_pairs: Set[Tuple[int, int]] = set()
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    # Training on uploads (Eq. 5)
    # ------------------------------------------------------------------
    def train_on_uploads(self, uploads: Sequence[ClientUpload], round_index: int) -> float:
        """Train the server model on the pooled prediction datasets."""
        uploads = [upload for upload in uploads if upload.num_records > 0]
        if not uploads:
            return 0.0
        users = np.concatenate([
            np.full(upload.num_records, upload.user_id, dtype=np.int64) for upload in uploads
        ])
        items = np.concatenate([upload.items for upload in uploads])
        scores = np.concatenate([upload.scores for upload in uploads])

        self._maybe_update_graph(users, items, scores)

        rng = self._rngs.spawn_indexed("server-batching", round_index)
        self.model.train()
        total_loss = 0.0
        batches = 0
        for _ in range(self.spec.protocol.server_epochs):
            iterator = BatchIterator(
                users, items, scores,
                batch_size=self.spec.protocol.server_batch_size, rng=rng,
            )
            for batch_users, batch_items, batch_scores in iterator:
                predictions = self.model.score(batch_users, batch_items)
                loss = self.loss_fn(predictions, batch_scores)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                total_loss += loss.item()
                batches += 1
        mean_loss = total_loss / max(batches, 1)
        self.loss_history.append(mean_loss)
        return mean_loss

    def _maybe_update_graph(
        self, users: np.ndarray, items: np.ndarray, scores: np.ndarray
    ) -> None:
        if not hasattr(self.model, "set_interaction_graph"):
            return
        new_pairs = pairs_from_scores(
            users, items, scores, threshold=self.spec.dispersal.graph_threshold
        )
        before = len(self._graph_pairs)
        self._graph_pairs.update((int(u), int(i)) for u, i in new_pairs)
        if len(self._graph_pairs) != before or before == 0:
            self.model.set_interaction_graph(sorted(self._graph_pairs))

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Model, optimizer, surrogate-graph and loss-history state."""
        pairs = np.asarray(sorted(self._graph_pairs), dtype=np.int64).reshape(-1, 2)
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "graph_pairs": pairs,
            "loss_history": [float(loss) for loss in self.loss_history],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this server."""
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        pairs = np.asarray(state["graph_pairs"], dtype=np.int64).reshape(-1, 2)
        self._graph_pairs = {(int(u), int(i)) for u, i in pairs}
        if self._graph_pairs and hasattr(self.model, "set_interaction_graph"):
            self.model.set_interaction_graph(sorted(self._graph_pairs))
        self.loss_history = [float(loss) for loss in state["loss_history"]]

    # ------------------------------------------------------------------
    # Dispersal construction (Eq. 9)
    # ------------------------------------------------------------------
    def build_dispersal(
        self,
        upload: ClientUpload,
        round_index: int,
        item_mask: Optional[np.ndarray] = None,
    ) -> DispersedDataset:
        """Build ``D̃_i`` for the client that produced ``upload``.

        ``item_mask`` (boolean, catalogue-length) restricts the candidate
        pool — dynamic-federation runs pass the set of items that have
        streamed into the catalogue so far, so the server never disperses
        an item that does not exist yet.
        """
        dispersal = self.spec.dispersal
        alpha = min(dispersal.alpha, self.num_items)
        if alpha == 0:
            empty = np.empty(0, dtype=np.int64)
            return DispersedDataset(upload.user_id, empty, empty.astype(np.float64))

        # Candidate pool: the full catalogue minus the client's uploaded
        # items, built with a boolean mask (the per-item Python loop this
        # replaces dominated round time on large catalogues).
        available = np.ones(self.num_items, dtype=bool)
        if item_mask is not None:
            available &= np.asarray(item_mask, dtype=bool)
        available[upload.items] = False
        candidates = np.flatnonzero(available).astype(np.int64)
        if candidates.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return DispersedDataset(upload.user_id, empty, empty.astype(np.float64))
        alpha = min(alpha, candidates.size)

        num_confidence = int(round(dispersal.mu * alpha))
        num_hard = alpha - num_confidence
        rng = self._rngs.spawn_indexed(
            "server-dispersal", upload.user_id * 1_000_003 + round_index
        )

        mode = dispersal.mode
        confidence_items = self._select_confidence(candidates, num_confidence, rng, mode)
        available[confidence_items] = False
        remaining = np.flatnonzero(available).astype(np.int64)
        hard_items = self._select_hard(upload.user_id, remaining, num_hard, rng, mode)

        items = np.unique(np.concatenate([confidence_items, hard_items]))
        scores = self.predict_for_user(upload.user_id, items)
        return DispersedDataset(upload.user_id, items, scores)

    def _select_confidence(
        self, candidates: np.ndarray, count: int, rng: np.random.Generator, mode: str
    ) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        count = min(count, candidates.size)
        if mode in ("random+hard", "random"):
            return rng.choice(candidates, size=count, replace=False)
        update_counts = self.model.item_update_counts()[candidates]
        order = np.argsort(-update_counts)
        return candidates[order[:count]]

    def _select_hard(
        self,
        user_id: int,
        candidates: np.ndarray,
        count: int,
        rng: np.random.Generator,
        mode: str,
    ) -> np.ndarray:
        if count <= 0 or candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        count = min(count, candidates.size)
        if mode in ("confidence+random", "random"):
            return rng.choice(candidates, size=count, replace=False)
        scores = self.predict_for_user(user_id, candidates)
        order = np.argsort(-scores)
        return candidates[order[:count]]

    # ------------------------------------------------------------------
    # Prediction helpers
    # ------------------------------------------------------------------
    def predict_for_user(self, user_id: int, items: np.ndarray) -> np.ndarray:
        """Server-model predictions ``r̃`` for one user over ``items``."""
        items = np.asarray(items, dtype=np.int64)
        users = np.full(items.size, int(user_id), dtype=np.int64)
        return self.model.score_pairs(users, items)
