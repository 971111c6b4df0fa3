"""FedMF: secure federated matrix factorization (Chai et al. 2020).

FedMF follows the same learning protocol as FCF but protects the uploaded
item-embedding updates with additively homomorphic encryption, so the
server aggregates ciphertexts it cannot read individually.  Encryption is
semantically transparent to the learning dynamics (the aggregate is the
same numbers); what changes is the wire size — every 4-byte float becomes
a ciphertext.  The paper's Table IV shows this expansion dominating the
comparison, and this implementation reproduces it with a configurable
``ciphertext_bytes`` cost model (default 64 bytes/value, which matches the
roughly 16x expansion over FCF reported in the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.data.dataset import InteractionDataset
from repro.federated.base import ParameterTransmissionFedRec
from repro.federated.communication import encrypted_parameter_bytes
from repro.models.mf import MatrixFactorization
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec

DEFAULT_CIPHERTEXT_BYTES = 64


class FedMF(ParameterTransmissionFedRec):
    """FCF with homomorphically encrypted parameter exchange."""

    name = "FedMF"
    trainer = "fedmf"

    def __init__(
        self,
        dataset: InteractionDataset,
        spec: Optional["ExperimentSpec"] = None,
        ciphertext_bytes: int = DEFAULT_CIPHERTEXT_BYTES,
    ):
        if ciphertext_bytes < 4:
            raise ValueError(
                f"ciphertext_bytes must be at least 4 (plaintext size), got {ciphertext_bytes}"
            )
        self.ciphertext_bytes = ciphertext_bytes
        super().__init__(dataset, spec)

    def _build_global_model(self) -> MatrixFactorization:
        # Same plain matrix factorization as FCF (see the note there); only
        # the wire format differs.
        rng = RngFactory(self.spec.seed).spawn("fedmf-model")
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

    def _sparse_value_bytes(self) -> int:
        # Each uploaded value is still a ciphertext; the row indices stay
        # plaintext (which rows update is already visible to the server).
        return self.ciphertext_bytes

    def _public_value_count(self) -> int:
        model: MatrixFactorization = self.model
        return model.item_embedding.weight.size

    def _download_bytes(self) -> int:
        return encrypted_parameter_bytes(self._public_value_count(), self.ciphertext_bytes)

    def _upload_bytes(self) -> int:
        return encrypted_parameter_bytes(self._public_value_count(), self.ciphertext_bytes)
