"""MetaMF: meta matrix factorization for federated rating prediction.

MetaMF (Lin et al. 2020) keeps a meta network on the server that generates
item embeddings for each client's private rating-prediction model.  This
reproduction models it as a matrix-factorization recommender whose item
embeddings are *generated* by a shared meta network applied to a public
item base table; the public payload is therefore the base table plus the
meta-network weights, which makes its per-round traffic slightly larger
than FCF's raw item table — matching the ordering in the paper's Table IV.
"""

from __future__ import annotations

from typing import Optional, Sequence

# repro: disable=backend-purity -- meta-network shape bookkeeping; training math runs on Tensor
import numpy as np

from repro.federated.base import ParameterTransmissionFedRec
from repro.federated.communication import dense_parameter_bytes
from repro.models.base import Recommender
from repro.nn import Embedding, Linear
from repro.tensor import Tensor
from repro.utils.rng import RngFactory
from repro.utils.rng import seeded_rng


class MetaMFModel(Recommender):
    """MF whose item embeddings are produced by a shared meta network."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        embedding_dim: int = 32,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(num_users, num_items)
        rng = rng if rng is not None else seeded_rng()
        self.embedding_dim = embedding_dim
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_base_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self.meta_hidden = Linear(embedding_dim, embedding_dim, rng=rng)
        self.meta_output = Linear(embedding_dim, embedding_dim, rng=rng)

    def generate_item_embedding(self, items: np.ndarray) -> Tensor:
        """Run the meta network over the base embeddings of ``items``."""
        base = self.item_base_embedding(items)
        hidden = self.meta_hidden(base).relu()
        return self.meta_output(hidden) + base

    def score(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        user_vectors = self.user_embedding(users)
        item_vectors = self.generate_item_embedding(items)
        logits = (user_vectors * item_vectors).sum(axis=1)
        return logits.sigmoid()

    def item_update_counts(self) -> np.ndarray:
        return self.item_base_embedding.update_counts.copy()


class MetaMF(ParameterTransmissionFedRec):
    """Federated training of :class:`MetaMFModel` with FedAvg aggregation."""

    name = "MetaMF"
    trainer = "metamf"

    def _build_global_model(self) -> MetaMFModel:
        rng = RngFactory(self.spec.seed).spawn("metamf-model")
        return MetaMFModel(
            self.dataset.num_users,
            self.dataset.num_items,
            embedding_dim=self.spec.model.embedding_dim,
            rng=rng,
        )

    def _public_parameter_names(self) -> Sequence[str]:
        return [
            "item_base_embedding.weight",
            "meta_hidden.weight",
            "meta_hidden.bias",
            "meta_output.weight",
            "meta_output.bias",
        ]

    def _item_row_parameter_names(self) -> Sequence[str]:
        # Only the base table is item-indexed; the meta-network weights are
        # dense blocks every client updates wholesale.
        return ["item_base_embedding.weight"]

    def _public_value_count(self) -> int:
        model: MetaMFModel = self.model
        return (
            model.item_base_embedding.weight.size
            + model.meta_hidden.weight.size
            + model.meta_hidden.bias.size
            + model.meta_output.weight.size
            + model.meta_output.bias.size
        )

    def _download_bytes(self) -> int:
        return dense_parameter_bytes(self._public_value_count())

    def _upload_bytes(self) -> int:
        return dense_parameter_bytes(self._public_value_count())
