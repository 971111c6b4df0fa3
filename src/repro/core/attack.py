"""The "Top Guess Attack" privacy audit (Section III-B2 / IV-G).

Threat model: the central server is honest-but-curious.  Knowing the
conventional negative-sampling ratio (1:4, i.e. 20% of trained items are
positives), it guesses that the top ``guess_ratio`` fraction of a client's
uploaded prediction scores correspond to that client's interacted items.
The attack is graded with F1 against the client's true positives among the
uploaded items; lower F1 means better privacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

# repro: disable=backend-purity -- the attack consumes the plaintext upload arrays an adversary sees
import numpy as np

from repro.core.client import ClientUpload
from repro.eval.metrics import f1_score


@dataclass(frozen=True)
class AttackReport:
    """Aggregate result of auditing one round of uploads."""

    mean_f1: float
    per_client_f1: Dict[int, float]
    guess_ratio: float
    num_clients: int

    def as_dict(self) -> Dict[str, float]:
        return {"F1": self.mean_f1, "guess_ratio": self.guess_ratio, "clients": self.num_clients}


class TopGuessAttack:
    """Implements the curious server's positive-item inference."""

    def __init__(self, guess_ratio: float = 0.2):
        if not 0.0 < guess_ratio <= 1.0:
            raise ValueError(f"guess_ratio must be in (0, 1], got {guess_ratio}")
        self.guess_ratio = guess_ratio

    def guess_positive_items(self, upload: ClientUpload) -> np.ndarray:
        """Return the items the attacker would flag as positives."""
        if upload.num_records == 0:
            return np.empty(0, dtype=np.int64)
        num_guesses = max(1, int(round(self.guess_ratio * upload.num_records)))
        order = np.argsort(-upload.scores)
        return upload.items[order[:num_guesses]]

    def audit_upload(self, upload: ClientUpload) -> float:
        """F1 of the attacker's guesses against the true uploaded positives."""
        guesses = self.guess_positive_items(upload)
        return f1_score(guesses, upload.true_positive_items)

    def audit_round(self, uploads: Sequence[ClientUpload]) -> AttackReport:
        """Audit every client's upload and average the F1 scores."""
        per_client: Dict[int, float] = {}
        for upload in uploads:
            if upload.num_records == 0:
                continue
            per_client[upload.user_id] = self.audit_upload(upload)
        mean = float(np.mean(list(per_client.values()))) if per_client else 0.0
        return AttackReport(
            mean_f1=mean,
            per_client_f1=per_client,
            guess_ratio=self.guess_ratio,
            num_clients=len(per_client),
        )
