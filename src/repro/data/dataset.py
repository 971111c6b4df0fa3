"""Implicit-feedback interaction dataset with train/test splits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics matching the paper's Table II columns."""

    name: str
    num_users: int
    num_items: int
    num_interactions: int
    average_profile_length: float
    density: float

    def as_row(self) -> Dict[str, object]:
        """Return the statistics as a flat dict (used by the Table II bench)."""
        return {
            "dataset": self.name,
            "#Users": self.num_users,
            "#Items": self.num_items,
            "#Interactions": self.num_interactions,
            "Average Length": round(self.average_profile_length, 1),
            "Density": f"{100.0 * self.density:.2f}%",
        }


class InteractionDataset:
    """Implicit user-item interactions split into train and test sets.

    All interactions are positive (``r = 1``); negatives are sampled from
    non-interacted items at training and evaluation time, following the
    paper's protocol (1:4 negative sampling, 8:2 train/test split).

    Each split is one read-only ``(N, 2)`` int64 array of ``(user, item)``
    rows, sorted and de-duplicated, plus CSR row offsets: user ``u``'s items
    are rows ``offsets[u]:offsets[u + 1]``, so per-user lookups are O(1) views.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        train_pairs: Sequence[Tuple[int, int]],
        test_pairs: Sequence[Tuple[int, int]] = (),
        name: str = "dataset",
    ):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.name = name
        self._train_pairs, self._train_offsets = self._index(train_pairs, "train")
        self._test_pairs, self._test_offsets = self._index(test_pairs, "test")
        self._users = np.flatnonzero(np.diff(self._train_offsets)).tolist()

    def _index(self, pairs: Sequence[Tuple[int, int]], label: str) -> Tuple[np.ndarray, List[int]]:
        """Validate a split and return its sorted unique rows with their CSR
        offsets; an error names the first bad pair in input order, user first."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        bad_user = (pairs[:, 0] < 0) | (pairs[:, 0] >= self.num_users)
        bad = bad_user | (pairs[:, 1] < 0) | (pairs[:, 1] >= self.num_items)
        if bad.any():
            row = bad.argmax()
            user, item = pairs[row]
            if bad_user[row]:
                raise ValueError(f"{label} pair has user {user} outside [0, {self.num_users})")
            raise ValueError(f"{label} pair has item {item} outside [0, {self.num_items})")
        pairs = _unique_rows(pairs)
        pairs.flags.writeable = False
        return pairs, np.searchsorted(pairs[:, 0], np.arange(self.num_users + 1)).tolist()

    @property
    def users(self) -> List[int]:
        """Users that have at least one training interaction."""
        return list(self._users)

    @property
    def num_train_interactions(self) -> int:
        return int(self._train_pairs.shape[0])

    @property
    def num_test_interactions(self) -> int:
        return int(self._test_pairs.shape[0])

    @property
    def train_pairs(self) -> np.ndarray:
        """All training ``(user, item)`` pairs as an ``(N, 2)`` array."""
        return self._train_pairs

    @property
    def test_pairs(self) -> np.ndarray:
        """All test ``(user, item)`` pairs as an ``(N, 2)`` array."""
        return self._test_pairs

    def train_items(self, user: int) -> np.ndarray:
        """Items the user interacted with in the training split."""
        return _row(self._train_pairs, self._train_offsets, user)

    def test_items(self, user: int) -> np.ndarray:
        """Items held out for the user in the test split."""
        return _row(self._test_pairs, self._test_offsets, user)

    def train_matrix(self) -> sp.csr_matrix:
        """Binary user-item training matrix in CSR format."""
        values = np.ones(self.num_train_interactions)
        csr = (values, self._train_pairs[:, 1], self._train_offsets)
        return sp.csr_matrix(csr, shape=(self.num_users, self.num_items))

    def stats(self) -> DatasetStats:
        """Statistics over the full dataset (train + test)."""
        total = self.num_train_interactions + self.num_test_interactions
        per_user = total / max(self.num_users, 1)
        density = total / float(self.num_users * self.num_items)
        return DatasetStats(
            name=self.name,
            num_users=self.num_users,
            num_items=self.num_items,
            num_interactions=total,
            average_profile_length=per_user,
            density=density,
        )

    def item_popularity(self) -> np.ndarray:
        """Training interaction count per item (used by popularity baselines)."""
        return np.bincount(self._train_pairs[:, 1], minlength=self.num_items)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    @staticmethod
    def from_pairs(
        num_users: int,
        num_items: int,
        pairs: Sequence[Tuple[int, int]],
        train_ratio: float = 0.8,
        rng: Optional[np.random.Generator] = None,
        name: str = "dataset",
    ) -> "InteractionDataset":
        """Split raw pairs per user into train/test with ``train_ratio``.

        Each user keeps at least one training interaction; users with a
        single interaction contribute no test item (they cannot be ranked).
        """
        if not 0.0 < train_ratio < 1.0:
            raise ValueError(f"train_ratio must be in (0, 1), got {train_ratio}")
        rng = rng if rng is not None else seeded_rng()
        raw = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        first_seen = np.unique(raw[:, 0], return_index=True)[1]
        pairs = _unique_rows(raw)
        counts = np.unique(pairs[:, 0], return_counts=True)[1]
        # First-appearance user order fixes the RNG stream and which bad pair an error names.
        pairs = pairs[np.argsort(np.repeat(first_seen, counts), kind="stable")]
        counts = counts[np.argsort(first_seen)]
        starts = np.cumsum(counts) - counts
        for start, count in zip(starts.tolist(), counts.tolist()):
            rng.shuffle(pairs[start: start + count, 1])
        cutoffs = np.minimum(np.maximum(1, np.round(train_ratio * counts)), counts)
        in_train = np.arange(len(pairs)) - np.repeat(starts, counts) < np.repeat(cutoffs, counts)
        return InteractionDataset(num_users, num_items, pairs[in_train], pairs[~in_train], name=name)

    def subset_users(self, users: Iterable[int], name: Optional[str] = None) -> "InteractionDataset":
        """Restrict the dataset to a subset of users (item space unchanged)."""
        keep = np.fromiter(map(int, users), dtype=np.int64)
        train, test = (p[np.isin(p[:, 0], keep)] for p in (self._train_pairs, self._test_pairs))
        return InteractionDataset(
            self.num_users, self.num_items, train, test, name=name or f"{self.name}-subset"
        )

    def __repr__(self) -> str:
        return (
            f"InteractionDataset(name={self.name!r}, users={self.num_users}, "
            f"items={self.num_items}, train={self.num_train_interactions}, "
            f"test={self.num_test_interactions})"
        )


def _unique_rows(pairs: np.ndarray) -> np.ndarray:
    """Rows sorted by user then item, duplicates dropped."""
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    fresh = np.ones(len(pairs), dtype=bool)
    fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    return pairs[fresh]


def _row(pairs: np.ndarray, offsets: List[int], user: int) -> np.ndarray:
    user = int(user)
    start, end = offsets[user: user + 2] if 0 <= user < len(offsets) - 1 else (0, 0)
    return pairs[start:end, 1]
