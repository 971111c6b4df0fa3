"""Batch iteration and on-disk dataset loading."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.utils.rng import seeded_rng


class BatchIterator:
    """Shuffled mini-batch iterator over parallel arrays.

    Used by the centralized trainers and the PTF-FedRec server (batch size
    1024 in the paper) to iterate ``(users, items, labels)`` triples.
    """

    def __init__(
        self,
        *arrays: np.ndarray,
        batch_size: int = 256,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if not arrays:
            raise ValueError("BatchIterator needs at least one array")
        lengths = {len(array) for array in arrays}
        if len(lengths) != 1:
            raise ValueError(f"arrays must share a length, got {sorted(lengths)}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.arrays = tuple(np.asarray(array) for array in arrays)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = rng if rng is not None else seeded_rng()

    def __len__(self) -> int:
        total = len(self.arrays[0])
        return (total + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, ...]]:
        total = len(self.arrays[0])
        order = self._rng.permutation(total) if self.shuffle else np.arange(total)
        for start in range(0, total, self.batch_size):
            index = order[start: start + self.batch_size]
            yield tuple(array[index] for array in self.arrays)


def load_movielens_file(
    path: Union[str, Path],
    train_ratio: float = 0.8,
    rng: Optional[np.random.Generator] = None,
    positive_threshold: float = 1.0,
) -> InteractionDataset:
    """Load a MovieLens ``u.data``-style file (user, item, rating, timestamp).

    Ratings at or above ``positive_threshold`` are converted to implicit
    positives, matching the paper's preprocessing ("transform all positive
    ratings to r=1").  User and item ids are remapped to a dense 0-based
    index space.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"MovieLens file not found: {path}")
    users_raw = []
    items_raw = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            fields = line.replace(",", "\t").split("\t")
            if len(fields) < 3:
                raise ValueError(f"malformed MovieLens line: {line!r}")
            rating = float(fields[2])
            if rating < positive_threshold:
                continue
            users_raw.append(fields[0])
            items_raw.append(fields[1])
    # Raw ids map to their rank in sorted order.
    user_ids, users = np.unique(np.asarray(users_raw, dtype=str), return_inverse=True)
    item_ids, items = np.unique(np.asarray(items_raw, dtype=str), return_inverse=True)
    return InteractionDataset.from_pairs(
        num_users=len(user_ids),
        num_items=len(item_ids),
        pairs=np.column_stack((users, items)),
        train_ratio=train_ratio,
        rng=rng,
        name=path.stem,
    )
