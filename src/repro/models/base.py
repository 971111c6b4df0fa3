"""Common interface shared by every recommendation model."""

from __future__ import annotations

from typing import Optional, Sequence

# repro: disable=backend-purity -- top-k cuts over detached score rows; model math runs on Tensor
import numpy as np

from repro.nn import Module
from repro.tensor import Tensor, no_grad


def top_k_ranked(scores: np.ndarray, k: int):
    """Cut the top-``k`` of masked score rows; returns ``(ranked, valid)``.

    The one implementation of the exclusion contract shared by every
    top-k cut site (``Recommender.recommend``, the batched evaluator, the
    serving facade).  ``scores`` is 1-D ``(num_items,)`` or 2-D
    ``(users, num_items)`` with masked-out entries set to ``-inf``;
    ``ranked`` carries ``k`` best-first item ids per row (masked items
    sort to the tail) and ``valid`` counts each row's unmasked candidates,
    capped at ``k`` — every slot at or beyond ``valid`` is mask leakage
    the caller must truncate or ignore.
    """
    top = np.argpartition(-scores, kth=k - 1, axis=-1)[..., :k]
    order = np.argsort(-np.take_along_axis(scores, top, axis=-1), axis=-1)
    ranked = np.take_along_axis(top, order, axis=-1)
    valid = np.minimum(np.count_nonzero(scores != -np.inf, axis=-1), k)
    return ranked, valid


class Recommender(Module):
    """Base class for user-item preference models.

    Every recommender maps a batch of ``(user, item)`` index pairs to a
    preference probability in ``[0, 1]`` via :meth:`score`.  Ranking
    helpers (:meth:`score_all_items`, :meth:`recommend`) are implemented on
    top and shared by the evaluation code, the centralized trainers and
    both federated frameworks.
    """

    def __init__(self, num_users: int, num_items: int):
        super().__init__()
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def score(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Return predicted preference probabilities for index pairs."""
        raise NotImplementedError

    def item_update_counts(self) -> np.ndarray:
        """Per-item count of gradient updates (confidence proxy).

        PTF-FedRec's server uses this to pick "reliable" items for the
        dispersed dataset; models without an item embedding return zeros.
        """
        return np.zeros(self.num_items, dtype=np.int64)

    # ------------------------------------------------------------------
    # Ranking helpers
    # ------------------------------------------------------------------
    def score_all_items(self, user: int) -> np.ndarray:
        """Score every item for one user without recording gradients."""
        items = np.arange(self.num_items, dtype=np.int64)
        users = np.full(self.num_items, int(user), dtype=np.int64)
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                scores = self.score(users, items).numpy()
        finally:
            self.train(was_training)
        return np.asarray(scores, dtype=np.float64).reshape(-1)

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score arbitrary pairs without recording gradients.

        Modes flip only when the model arrives in training mode: a caller
        that holds it in eval mode keeps a graph model's propagation cache
        across calls (a mode flip invalidates it).
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                scores = self.score(
                    np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
                ).numpy()
        finally:
            if was_training:
                self.train(True)
        return np.asarray(scores, dtype=np.float64).reshape(-1)

    def recommend(
        self,
        user: int,
        k: int = 20,
        exclude_items: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Return the top-``k`` item ids for ``user``.

        ``exclude_items`` (typically the user's training positives) are
        removed from the candidate pool, matching the paper's evaluation
        over "all items that have not interacted with users".  When fewer
        than ``k`` candidates survive the exclusion, the returned list is
        truncated to the valid candidates — excluded items are never
        recommended back.
        """
        scores = self.score_all_items(user)
        if exclude_items is not None and len(exclude_items):
            scores = scores.copy()
            scores[np.asarray(exclude_items, dtype=np.int64)] = -np.inf
        k = min(k, self.num_items)
        ranked, valid = top_k_ranked(scores, k)
        return ranked[:valid] if valid < k else ranked
