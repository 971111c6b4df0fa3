"""Federated Collaborative Filtering (FCF, Ammad-ud-din et al. 2019).

The first FedRec: a matrix-factorization model where user embeddings stay
on device (private) and the item-embedding table is the public parameter
set exchanged with the server every round.
"""

from __future__ import annotations

from typing import Sequence

from repro.federated.base import ParameterTransmissionFedRec
from repro.federated.communication import dense_parameter_bytes
from repro.models.mf import MatrixFactorization
from repro.utils.rng import RngFactory


class FCF(ParameterTransmissionFedRec):
    """FedAvg over the item embeddings of a matrix-factorization model."""

    name = "FCF"
    trainer = "fcf"

    def _build_global_model(self) -> MatrixFactorization:
        # The original FCF optimizes a plain dot-product factorization, so
        # no bias terms are used (they would also leak global popularity to
        # every client for free).
        rng = RngFactory(self.spec.seed).spawn("fcf-model")
        return MatrixFactorization(
            self.dataset.num_users,
            self.dataset.num_items,
            embedding_dim=self.spec.model.embedding_dim,
            rng=rng,
            use_bias=False,
        )

    def _public_parameter_names(self) -> Sequence[str]:
        return ["item_embedding.weight"]

    def _item_row_parameter_names(self) -> Sequence[str]:
        # Sparse payloads ship only the item rows a client interacted with.
        return ["item_embedding.weight"]

    def _public_value_count(self) -> int:
        model: MatrixFactorization = self.model
        return model.item_embedding.weight.size

    def _download_bytes(self) -> int:
        return dense_parameter_bytes(self._public_value_count())

    def _upload_bytes(self) -> int:
        return dense_parameter_bytes(self._public_value_count())
