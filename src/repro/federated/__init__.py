"""Parameter transmission-based federated recommendation baselines.

These implement the traditional FedRec learning protocol the paper argues
against (Section II-B): the server open-sources a recommendation model,
ships its public parameters (item embeddings and shared weights) to
clients every round, clients train locally and upload updates, and the
server aggregates them FedAvg-style.

Three baselines from the paper's Table III / IV are provided:

* :class:`FCF` — federated collaborative filtering (Ammad-ud-din et al.),
* :class:`FedMF` — secure matrix factorization with homomorphically
  encrypted item-embedding updates (Chai et al.); the encryption is
  modelled by its ciphertext expansion, which is what drives its
  communication cost,
* :class:`MetaMF` — meta-network-based federated rating prediction
  (Lin et al.), approximated by a shared item-embedding *generator*
  network that is transmitted instead of the raw embedding table.
"""

from repro.federated.communication import (
    CommunicationLedger,
    TransferRecord,
    dense_parameter_bytes,
    encrypted_parameter_bytes,
    prediction_triple_bytes,
)
from repro.federated.base import ParameterTransmissionFedRec
from repro.federated.fcf import FCF
from repro.federated.fedmf import FedMF
from repro.federated.metamf import MetaMF

__all__ = [
    "CommunicationLedger",
    "TransferRecord",
    "dense_parameter_bytes",
    "encrypted_parameter_bytes",
    "prediction_triple_bytes",
    "ParameterTransmissionFedRec",
    "FCF",
    "FedMF",
    "MetaMF",
]
