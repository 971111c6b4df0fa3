"""Batched score-matrix computation shared by evaluation and serving.

The per-user callers (the full-ranking evaluator, serial ``recommend``
loops) ask a model for one user's scores at a time; at evaluation and
query time that Python loop is the bottleneck, not the math.
:func:`batch_scores` computes a whole cohort's ``(users, num_items)``
score matrix at once, the same way the execution engine stacks client
work (:mod:`repro.engine.batch`): architecture-specific closed forms where
the model is a (transformed) embedding dot product — one matmul per
cohort — and a flattened all-pairs tensor pass as the universal fallback.
Either way, scoring ``U`` users costs a handful of NumPy calls instead of
``U`` Python round-trips.

This module lives under :mod:`repro.eval` so the training-time evaluator
and the serving tier (:mod:`repro.serve`) share one cohort scorer without
the evaluator depending on the serving package.

The all-pairs fallback processes users in chunks of ``chunk_size`` so the
flattened ``(chunk x num_items)`` pair arrays — and the tensor graph's
intermediate activations (NeuMF's MLP tower) — stay memory-bounded no
matter how large the cohort is.  :data:`DEFAULT_CHUNK_SIZE` is the shared
knob: the batched evaluator chunks its user stream by the same value.
"""

from __future__ import annotations

from typing import Optional

# repro: disable=backend-purity -- cohort scorer returns detached ndarray score matrices by contract
import numpy as np

from repro.engine.batch import StackedMF, StackedMetaMF
from repro.models.base import Recommender
from repro.tensor import no_grad

#: Users per scoring chunk — shared by the all-pairs fallback below and by
#: :meth:`repro.eval.ranking.RankingEvaluator.evaluate`'s ``batch_size``.
DEFAULT_CHUNK_SIZE = 128


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """The substrate's sigmoid (same clipping as ``Tensor.sigmoid``)."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))


def _relu(values: np.ndarray) -> np.ndarray:
    return values * (values > 0)


# ----------------------------------------------------------------------
# Closed-form cohort scorers (one matmul per cohort)
# ----------------------------------------------------------------------
def _mf_scores(model, users: np.ndarray):
    """Matrix factorization: ``sigmoid(U @ I.T (+ biases))``."""
    user_vectors = model.user_embedding.weight.data[users]
    item_table = model.item_embedding.weight.data
    logits = user_vectors @ item_table.T
    if model.use_bias:
        logits = logits + model.user_bias.data[users][:, None]
        logits = logits + model.item_bias.data[None, :]
    return _sigmoid(logits)


def _metamf_scores(model, users: np.ndarray):
    """MetaMF: run the meta network once over the full base table."""
    base = model.item_base_embedding.weight.data
    hidden = _relu(base @ model.meta_hidden.weight.data.T + model.meta_hidden.bias.data)
    item_vectors = hidden @ model.meta_output.weight.data.T + model.meta_output.bias.data + base
    user_vectors = model.user_embedding.weight.data[users]
    return _sigmoid(user_vectors @ item_vectors.T)


def _graph_scores(model, users: np.ndarray):
    """NGCF / LightGCN: propagate once, then one user-by-item matmul.

    Propagation is user-independent, so an already-eval-mode model serves
    every chunk of a cohort from its own propagation cache (the batched
    evaluator holds the model in eval mode across chunks for exactly this
    reason); mode flips — which invalidate that cache by the models' own
    contract — happen only when the model arrives in training mode.
    """
    was_training = model.training
    if was_training:
        model.eval()
    try:
        with no_grad():
            final_embeddings = getattr(model, "_final_embeddings", model.propagate)
            final = final_embeddings().numpy()
    finally:
        if was_training:
            model.train(True)
    user_vectors = final[users]
    item_vectors = final[model.num_users:]
    return _sigmoid(user_vectors @ item_vectors.T)


def _closed_form(model):
    """Pick the architecture's cohort scorer, or ``None`` for the fallback.

    Dispatch reuses the engine's own ``supports`` predicates
    (:mod:`repro.engine.batch`) so the two stacked paths recognize the
    same architectures; the graph models have no training-side stacking
    and are matched on their propagation interface.  Unrecognized
    architectures degrade gracefully to the flat all-pairs pass.
    """
    if StackedMF.supports(model):
        return _mf_scores
    if StackedMetaMF.supports(model):
        return _metamf_scores
    if hasattr(model, "propagate") and hasattr(model, "node_embedding"):
        return _graph_scores
    return None


def _flat_scores(model: Recommender, users: np.ndarray) -> np.ndarray:
    """All-pairs fallback for one cohort chunk: a single flat tensor pass."""
    items = np.arange(model.num_items, dtype=np.int64)
    flat_users = np.repeat(users, model.num_items)
    flat_items = np.tile(items, users.size)
    scores = model.score_pairs(flat_users, flat_items)
    return scores.reshape(users.size, model.num_items)


def batch_scores(
    model: Recommender,
    users: np.ndarray,
    chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Score every item for a cohort of users; returns ``(U, num_items)``.

    Models without a closed form (e.g. NeuMF's MLP tower) run flat
    all-pairs forwards — still vectorized tensor passes rather than ``U``
    per-user calls, but materialized ``chunk_size`` users at a time so the
    flattened pair arrays never hold more than ``chunk_size x num_items``
    rows (``None`` disables chunking).  The closed forms allocate only the
    returned matrix and ignore ``chunk_size``.
    """
    users = np.asarray(users, dtype=np.int64).reshape(-1)
    if users.size == 0:
        return np.empty((0, model.num_items), dtype=np.float64)
    if np.any((users < 0) | (users >= model.num_users)):
        raise IndexError("user id out of range for the served model")
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive or None, got {chunk_size}")
    scorer = _closed_form(model)
    if scorer is not None:
        return np.asarray(scorer(model, users), dtype=np.float64)
    if chunk_size is None or users.size <= chunk_size:
        return _flat_scores(model, users)
    scores = np.empty((users.size, model.num_items), dtype=np.float64)
    for start in range(0, users.size, chunk_size):
        chunk = users[start:start + chunk_size]
        scores[start:start + chunk.size] = _flat_scores(model, chunk)
    return scores
