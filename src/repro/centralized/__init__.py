"""Centralized training of recommendation models.

These are the paper's "Centralized Recs" baselines in Table III: the same
NeuMF/NGCF/LightGCN models trained directly on all interaction data by a
single party, providing the performance ceiling that the federated methods
approach.
"""

from repro.centralized.trainer import CentralizedTrainer

__all__ = ["CentralizedTrainer"]
