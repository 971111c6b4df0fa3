"""Rows-touched sparse payloads for federated parameter exchange.

A federated client only ever updates a handful of rows of the global
embedding tables — the items it interacted with this round — yet the dense
exchange path ships and accumulates full ``(rows, dim)`` deltas per
client.  :class:`SparseDelta` is the wire/aggregation representation that
scales: the sorted row indices a client touched plus the value block for
exactly those rows.  Everything else about the payload (which floats, in
which order they are accumulated) is preserved, so the sparse execution
path stays ``==``-identical to the dense reference: skipping a row whose
delta is exactly ``0.0`` only ever skips adding ``+0.0`` to an
accumulator, which cannot change any value an equality test observes.

Payloads cover two parameter families:

* **row tables** (item-embedding matrices): ``indices`` holds the touched
  rows, ``values`` the ``(num_rows, dim)`` block;
* **dense blocks** (meta-network weights, biases — parameters every
  client updates in full): represented as an all-rows payload via
  :meth:`SparseDelta.dense_block`, so one type models the whole exchange.

>>> import numpy as np
>>> delta = SparseDelta.from_dense(np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 2.0]]))
>>> delta.indices.tolist()
[1, 2]
>>> delta.num_rows, delta.row_width
(2, 2)
>>> out = np.zeros((3, 2))
>>> delta.add_into(out)
>>> bool(np.array_equal(out, delta.to_dense()))
True
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SparseDelta"]


def _sorted_unique(rows) -> np.ndarray:
    """``rows`` as sorted unique int64 ids, skipping ``np.unique`` when they
    already are (``ClientTrainingPlan.touched_items`` output, for one)."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size > 1 and not (rows[1:] > rows[:-1]).all():
        rows = np.unique(rows)
    return rows


class SparseDelta:
    """A rows-touched view of a dense parameter delta.

    ``shape`` is the full dense shape, ``indices`` the sorted, duplicate-free
    axis-0 rows the payload carries, and ``values`` the corresponding value
    block of shape ``(len(indices), *shape[1:])``.  Instances are
    value-objects: construction validates, and all combining operations
    return new instances or write into caller-provided dense accumulators.
    """

    __slots__ = ("shape", "indices", "values")

    def __init__(
        self,
        shape: Sequence[int],
        indices: np.ndarray,
        values: np.ndarray,
    ):
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values)
        if not self.shape:
            raise ValueError("SparseDelta needs at least a 1-D dense shape")
        if self.indices.ndim != 1:
            raise ValueError(
                f"indices must be 1-D, got shape {self.indices.shape}"
            )
        if self.values.shape != (self.indices.size,) + self.shape[1:]:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{(self.indices.size,) + self.shape[1:]} for dense shape {self.shape}"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.shape[0]:
                raise ValueError(
                    f"indices out of range for axis 0 of shape {self.shape}"
                )
            steps = np.diff(self.indices)
            if (steps == 0).any():
                raise ValueError("duplicate row indices in SparseDelta")
            if (steps < 0).any():
                raise ValueError("row indices must be sorted ascending")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> "SparseDelta":
        """Encode a dense delta, keeping ``rows`` (or every nonzero row).

        ``rows`` may carry duplicates and arbitrary order — it is sorted
        and deduplicated (a client's batch item lists repeat items freely).
        With ``rows=None`` the touched set is detected from the data: any
        row containing a nonzero entry.
        """
        dense = np.asarray(dense)
        if rows is None:
            flat = dense.reshape(dense.shape[0], -1) if dense.ndim > 1 else dense[:, None]
            rows = np.flatnonzero(np.any(flat != 0, axis=1))
        else:
            rows = _sorted_unique(rows)
        return cls(dense.shape, rows, dense[rows].copy())

    @classmethod
    def dense_block(cls, dense: np.ndarray) -> "SparseDelta":
        """An all-rows payload (parameters every client ships in full)."""
        dense = np.asarray(dense)
        return cls(dense.shape, np.arange(dense.shape[0], dtype=np.int64), dense.copy())

    @classmethod
    def between(
        cls, updated: np.ndarray, base: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> "SparseDelta":
        """The delta ``updated - base`` restricted to ``rows``.

        Subtraction happens *only* at the touched rows, so encoding a
        client's update costs ``O(touched × dim)`` — never a full-table
        temporary.  ``rows=None`` ships the whole difference as a dense
        block (used for meta-network weights).
        """
        updated = np.asarray(updated)
        base = np.asarray(base)
        if updated.shape != base.shape:
            raise ValueError(
                f"updated shape {updated.shape} != base shape {base.shape}"
            )
        if rows is None:
            return cls.dense_block(updated - base)
        rows = _sorted_unique(rows)
        return cls(updated.shape, rows, updated[rows] - base[rows])

    # ------------------------------------------------------------------
    # Shape / size accounting
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """How many axis-0 rows the payload carries."""
        return int(self.indices.size)

    @property
    def row_width(self) -> int:
        """Float values per row (1 for vector parameters)."""
        return int(np.prod(self.shape[1:], dtype=np.int64)) if len(self.shape) > 1 else 1

    @property
    def num_values(self) -> int:
        """Total float values in the payload."""
        return self.num_rows * self.row_width

    @property
    def density(self) -> float:
        """Fraction of the dense table's rows this payload carries."""
        return self.num_rows / self.shape[0] if self.shape[0] else 0.0

    # ------------------------------------------------------------------
    # Dense interop
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The equivalent full-shape dense delta (zeros off the rows)."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.indices] = self.values
        return dense

    def add_into(self, out: np.ndarray, weight: Optional[float] = None) -> None:
        """Accumulate into a dense array: ``out[rows] += weight * values``.

        Row indices are unique by construction, so fancy-index ``+=`` is an
        exact scatter-add.  With ``weight=None`` the values are added as-is
        (bitwise the same additions the dense path performs at these rows);
        a float weight reproduces the dense ``out += weight * delta``
        elementwise arithmetic at the touched rows.
        """
        if out.shape != self.shape:
            raise ValueError(f"accumulator shape {out.shape} != {self.shape}")
        if weight is None:
            out[self.indices] += self.values
        else:
            out[self.indices] += weight * self.values

    def count_into(self, out: np.ndarray, weight: Optional[float] = None) -> None:
        """Accumulate the nonzero mask: ``out[rows] += weight * (values != 0)``.

        This is the sparse twin of the dense update-count accumulation
        ``count += (delta != 0.0)`` — rows off the payload have an exactly
        zero delta and would contribute ``+0.0``.
        """
        if out.shape != self.shape:
            raise ValueError(f"accumulator shape {out.shape} != {self.shape}")
        mask = self.values != 0.0
        if weight is None:
            out[self.indices] += mask
        else:
            out[self.indices] += weight * mask

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def merge(self, other: "SparseDelta") -> "SparseDelta":
        """Row-union sum of two payloads over the same dense shape.

        Overlapping rows add their value blocks (``self + other``, in that
        operand order); disjoint rows pass through.  Useful for folding a
        cohort's payloads into one buffered aggregate.
        """
        if other.shape != self.shape:
            raise ValueError(f"cannot merge shapes {self.shape} and {other.shape}")
        union = np.union1d(self.indices, other.indices)
        values = np.zeros((union.size,) + self.shape[1:],
                          dtype=np.result_type(self.values, other.values))
        values[np.searchsorted(union, self.indices)] += self.values
        values[np.searchsorted(union, other.indices)] += other.values
        return SparseDelta(self.shape, union, values)

    # ------------------------------------------------------------------
    # Serialization (checkpoint state trees)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint-safe encoding (plain ints + ndarrays)."""
        return {
            "kind": "sparse-delta",
            "shape": [int(s) for s in self.shape],
            "indices": self.indices.copy(),
            "values": self.values.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SparseDelta":
        """Inverse of :meth:`state_dict`."""
        if state.get("kind") != "sparse-delta":
            raise ValueError(f"not a SparseDelta state dict: {state.get('kind')!r}")
        return cls(
            tuple(int(s) for s in state["shape"]),
            np.asarray(state["indices"], dtype=np.int64),
            np.asarray(state["values"]),
        )

    @staticmethod
    def is_state_dict(value: object) -> bool:
        """Whether ``value`` is a :meth:`state_dict` encoding."""
        return isinstance(value, dict) and value.get("kind") == "sparse-delta"

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseDelta):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    # Mutable-array value object: equality is by content, so unhashable.
    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"SparseDelta(shape={self.shape}, rows={self.num_rows}, "
            f"density={self.density:.3f})"
        )
