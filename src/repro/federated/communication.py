"""Byte-level communication accounting.

Table IV of the paper compares the *average per-client, per-round*
communication cost of each framework.  Every simulated framework in this
repository records each logical transfer (download or upload, per client,
per round) in a :class:`CommunicationLedger`, and the benchmark reproduces
the table directly from the ledger.

Cost model:

* dense parameters — 4 bytes per float (float32 on the wire),
* homomorphically encrypted values — one Paillier-style ciphertext per
  value; 2048-bit keys give 512-byte ciphertexts (the expansion that makes
  FedMF's costs explode in the paper),
* prediction triples — ``(user id, item id, score)`` packed as two 4-byte
  integers and one 4-byte float.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Literal

# repro: disable=backend-purity -- byte accounting and ledger serialization over int arrays
import numpy as np

FLOAT_BYTES = 4
INT_BYTES = 4
PAILLIER_CIPHERTEXT_BYTES = 512

Direction = Literal["download", "upload"]


def dense_parameter_bytes(num_values: int) -> int:
    """Bytes needed to ship ``num_values`` plaintext float parameters."""
    if num_values < 0:
        raise ValueError(f"num_values must be non-negative, got {num_values}")
    return num_values * FLOAT_BYTES


def sparse_parameter_bytes(
    num_rows: int,
    row_width: int,
    index_bytes: int = INT_BYTES,
    value_bytes: int = FLOAT_BYTES,
) -> int:
    """Bytes needed to ship ``num_rows`` touched rows of a parameter table.

    A sparse payload carries, per touched row, one row index plus
    ``row_width`` values — so a client that touched 40 of 100k item rows
    pays for 40 rows, not the full table.  ``value_bytes`` generalizes the
    per-value cost (FedMF ships ciphertexts, not plaintext floats; row
    indices stay plaintext — they are already exposed by which rows carry
    an update at all).
    """
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    if row_width < 0:
        raise ValueError(f"row_width must be non-negative, got {row_width}")
    return num_rows * (index_bytes + row_width * value_bytes)


def encrypted_parameter_bytes(
    num_values: int, ciphertext_bytes: int = PAILLIER_CIPHERTEXT_BYTES
) -> int:
    """Bytes needed to ship ``num_values`` homomorphically encrypted values."""
    if num_values < 0:
        raise ValueError(f"num_values must be non-negative, got {num_values}")
    return num_values * ciphertext_bytes


def prediction_triple_bytes(num_triples: int) -> int:
    """Bytes needed to ship ``num_triples`` ``(user, item, score)`` records."""
    if num_triples < 0:
        raise ValueError(f"num_triples must be non-negative, got {num_triples}")
    return num_triples * (2 * INT_BYTES + FLOAT_BYTES)


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One logical transfer between the server and a client.

    Slotted: a large federation's ledger holds one per client per leg per
    round, and a ``__dict__`` per record would more than double its size.
    """

    round_index: int
    client_id: int
    direction: Direction
    num_bytes: int
    description: str = ""


class CommunicationLedger:
    """Accumulates transfers and answers per-client/per-round questions."""

    def __init__(self):
        self._records: List[TransferRecord] = []

    def record(
        self,
        round_index: int,
        client_id: int,
        direction: Direction,
        num_bytes: int,
        description: str = "",
    ) -> None:
        """Append one transfer to the ledger."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if direction not in ("download", "upload"):
            raise ValueError(f"direction must be 'download' or 'upload', got {direction!r}")
        self._records.append(
            TransferRecord(round_index, client_id, direction, int(num_bytes), description)
        )

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TransferRecord]:
        return list(self._records)

    def total_bytes(self) -> int:
        """Total bytes moved across all rounds, clients and directions."""
        return sum(record.num_bytes for record in self._records)

    def bytes_per_round(self) -> Dict[int, int]:
        """Total bytes per round."""
        totals: Dict[int, int] = defaultdict(int)
        for record in self._records:
            totals[record.round_index] += record.num_bytes
        return dict(totals)

    def client_round_bytes(self) -> Dict[tuple, int]:
        """Bytes for each ``(client, round)`` combination that had traffic."""
        totals: Dict[tuple, int] = defaultdict(int)
        for record in self._records:
            totals[(record.client_id, record.round_index)] += record.num_bytes
        return dict(totals)

    def average_client_round_bytes(self) -> float:
        """Average bytes per client per round (the Table IV quantity)."""
        per_pair = self.client_round_bytes()
        if not per_pair:
            return 0.0
        # repro: disable=float-determinism -- integer byte counts; order-free
        return sum(per_pair.values()) / len(per_pair)

    def average_client_round_kilobytes(self) -> float:
        """Average per-client per-round cost in KB."""
        return self.average_client_round_bytes() / 1024.0

    def average_client_round_megabytes(self) -> float:
        """Average per-client per-round cost in MB."""
        return self.average_client_round_bytes() / (1024.0 * 1024.0)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Columnar snapshot of every record (arrays + parallel string lists).

        A resumed run must report the *whole* run's communication, so the
        ledger is checkpointed alongside the model state.
        """
        return {
            "round_index": np.array([r.round_index for r in self._records], dtype=np.int64),
            "client_id": np.array([r.client_id for r in self._records], dtype=np.int64),
            "num_bytes": np.array([r.num_bytes for r in self._records], dtype=np.int64),
            "direction": [r.direction for r in self._records],
            "description": [r.description for r in self._records],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace all records with a :meth:`state_dict` snapshot."""
        rounds = state["round_index"]
        clients = state["client_id"]
        sizes = state["num_bytes"]
        directions = state["direction"]
        descriptions = state["description"]
        lengths = {len(rounds), len(clients), len(sizes), len(directions), len(descriptions)}
        if len(lengths) != 1:
            raise ValueError(f"ledger state columns disagree on length: {sorted(lengths)}")
        self._records = [
            TransferRecord(int(r), int(c), str(d), int(b), str(text))
            for r, c, d, b, text in zip(rounds, clients, directions, sizes, descriptions)
        ]
