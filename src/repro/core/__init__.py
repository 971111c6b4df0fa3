"""PTF-FedRec: the paper's parameter transmission-free federated recommender.

The central server and the clients hold *different* models and never see
each other's parameters.  They cooperate by exchanging prediction scores:

* clients upload privacy-protected prediction datasets ``D̂_i`` built from
  a sampled subset of their trained items (Section III-B2),
* the server trains its hidden model on the pooled uploads (Eq. 5) and
  disperses soft labels ``D̃_i`` for confidence-selected and hard items
  back to each client (Section III-B3).

Public entry point: :class:`PTFFedRec` drives the whole protocol,
configured by a :class:`repro.experiments.ExperimentSpec`.
"""

from repro.core.config import DefenseMode, DispersalMode, ensure_spec
from repro.core.client import ClientUpload, PTFClient
from repro.core.server import DispersedDataset, PTFServer
from repro.core.privacy import (
    sample_upload_items,
    swap_positive_scores,
    laplace_perturbation,
    apply_defense,
)
from repro.core.attack import TopGuessAttack, AttackReport
from repro.core.protocol import PTFFedRec, RoundSummary

__all__ = [
    "DefenseMode",
    "DispersalMode",
    "ensure_spec",
    "PTFClient",
    "ClientUpload",
    "PTFServer",
    "DispersedDataset",
    "sample_upload_items",
    "swap_positive_scores",
    "laplace_perturbation",
    "apply_defense",
    "TopGuessAttack",
    "AttackReport",
    "PTFFedRec",
    "RoundSummary",
]
