"""Unit tests for rows-touched sparse payloads.

Covers the :class:`repro.tensor.sparse.SparseDelta` value-object contract
(encode/decode/merge round-trips over seeded random shapes and masks, the
degenerate empty-rows / all-rows cases, and validation), the byte
accounting of :func:`repro.federated.communication.sparse_parameter_bytes`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts.io import flatten_state, unflatten_state
from repro.federated.communication import (
    FLOAT_BYTES,
    INT_BYTES,
    dense_parameter_bytes,
    sparse_parameter_bytes,
)
from repro.tensor import active_backend
from repro.tensor.sparse import SparseDelta


def _random_case(rng: np.random.Generator):
    """One random (dense delta, touched rows) pair, any of several shapes."""
    num_rows = int(rng.integers(1, 40))
    tail = [(), (int(rng.integers(1, 9)),), (2, 3)][int(rng.integers(0, 3))]
    shape = (num_rows,) + tail
    dense = np.zeros(shape)
    touched = rng.choice(num_rows, size=int(rng.integers(0, num_rows + 1)), replace=False)
    for row in touched:
        block = rng.normal(size=tail) if tail else rng.normal()
        dense[row] = block
    return dense, touched


class TestSparseDeltaRoundTrips:
    """Property-style seeded sweeps: sparse encode/decode is lossless."""

    def test_from_dense_to_dense_round_trip(self, rng):
        for _ in range(50):
            dense, touched = _random_case(rng)
            delta = SparseDelta.from_dense(dense, rows=touched)
            assert np.array_equal(delta.to_dense(), dense)
            assert delta.num_rows == len(set(int(r) for r in touched))
            # Auto-detection finds exactly the nonzero rows — a subset of
            # the declared touched set (a touched row may stay zero).
            detected = SparseDelta.from_dense(dense)
            assert np.array_equal(detected.to_dense(), dense)
            assert set(detected.indices.tolist()) <= set(int(r) for r in touched)

    def test_between_matches_full_subtraction(self, rng):
        for _ in range(50):
            base, touched = _random_case(rng)
            updated = base.copy()
            for row in touched:
                updated[row] += rng.normal()
            delta = SparseDelta.between(updated, base, rows=touched)
            assert np.array_equal(delta.to_dense(), updated - base)
            # Restricted subtraction produces the same bits as slicing the
            # full-table difference at the touched rows.
            full = (updated - base)[np.unique(np.asarray(touched, dtype=np.int64))]
            assert np.array_equal(delta.values, full)

    def test_add_into_equals_dense_accumulation(self, rng):
        for _ in range(30):
            dense, touched = _random_case(rng)
            delta = SparseDelta.from_dense(dense, rows=touched)
            sparse_acc = rng.normal(size=dense.shape)
            dense_acc = sparse_acc.copy()
            delta.add_into(sparse_acc)
            dense_acc += dense
            assert np.array_equal(sparse_acc, dense_acc)

    def test_weighted_add_into_matches_dense(self, rng):
        for weight in (0.25, 1.0, 3.0):
            dense, touched = _random_case(rng)
            delta = SparseDelta.from_dense(dense, rows=touched)
            sparse_acc = np.zeros(dense.shape)
            delta.add_into(sparse_acc, weight=weight)
            reference = np.zeros(dense.shape)
            reference[delta.indices] += weight * dense[delta.indices]
            assert np.array_equal(sparse_acc, reference)

    def test_count_into_equals_dense_mask_accumulation(self, rng):
        for _ in range(30):
            dense, touched = _random_case(rng)
            delta = SparseDelta.from_dense(dense, rows=touched)
            sparse_acc = np.zeros(dense.shape)
            dense_acc = np.zeros(dense.shape)
            delta.count_into(sparse_acc)
            dense_acc += (dense != 0.0)
            assert np.array_equal(sparse_acc, dense_acc)

    def test_merge_is_union_sum(self, rng):
        for _ in range(30):
            shape = (20, 4)
            a = np.zeros(shape)
            b = np.zeros(shape)
            rows_a = rng.choice(20, size=int(rng.integers(0, 21)), replace=False)
            rows_b = rng.choice(20, size=int(rng.integers(0, 21)), replace=False)
            a[rows_a] = rng.normal(size=(len(rows_a), 4))
            b[rows_b] = rng.normal(size=(len(rows_b), 4))
            merged = SparseDelta.from_dense(a, rows=rows_a).merge(
                SparseDelta.from_dense(b, rows=rows_b)
            )
            assert np.array_equal(merged.to_dense(), a + b)
            assert set(merged.indices.tolist()) == (
                set(int(r) for r in rows_a) | set(int(r) for r in rows_b)
            )

    def test_unsorted_and_duplicated_rows_are_normalized(self):
        dense = np.arange(12, dtype=float).reshape(6, 2)
        delta = SparseDelta.from_dense(dense, rows=np.array([4, 1, 4, 1, 1]))
        assert delta.indices.tolist() == [1, 4]
        assert np.array_equal(delta.values, dense[[1, 4]])

    def test_between_unsorted_or_duplicate_rows_equal_sorted_unique(self, rng):
        for _ in range(30):
            base, touched = _random_case(rng)
            updated = base + rng.normal(size=base.shape)
            canonical = SparseDelta.between(updated, base, rows=np.sort(touched))
            shuffled = rng.permutation(np.concatenate([touched, touched[:3]]))
            assert SparseDelta.between(updated, base, rows=shuffled) == canonical
            assert SparseDelta.from_dense(updated, rows=shuffled) == (
                SparseDelta.from_dense(updated, rows=np.sort(touched))
            )

    def test_sorted_unique_rows_skip_deduplication(self, monkeypatch):
        """Plan-touched rows arrive sorted and unique; encoding them must
        not pay for a second ``np.unique``, and validation still runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called on sorted unique rows")

        base = np.zeros((6, 2))
        updated = np.arange(12, dtype=float).reshape(6, 2)
        monkeypatch.setattr(np, "unique", refuse)
        delta = SparseDelta.between(updated, base, rows=np.array([0, 2, 5]))
        assert delta.indices.tolist() == [0, 2, 5]
        assert np.array_equal(delta.values, updated[[0, 2, 5]])
        with pytest.raises(ValueError, match="out of range"):
            SparseDelta.between(updated, base, rows=np.array([-1, 2]))


class TestSparseDeltaEdgeCases:
    def test_empty_rows_payload(self):
        delta = SparseDelta.from_dense(np.zeros((7, 3)), rows=np.empty(0, dtype=np.int64))
        assert delta.num_rows == 0
        assert delta.num_values == 0
        assert delta.density == 0.0
        assert np.array_equal(delta.to_dense(), np.zeros((7, 3)))
        acc = np.ones((7, 3))
        delta.add_into(acc)
        assert np.array_equal(acc, np.ones((7, 3)))

    def test_all_rows_payload_via_dense_block(self):
        dense = np.arange(10, dtype=float).reshape(5, 2)
        delta = SparseDelta.dense_block(dense)
        assert delta.indices.tolist() == [0, 1, 2, 3, 4]
        assert delta.density == 1.0
        assert np.array_equal(delta.to_dense(), dense)

    def test_vector_parameters_have_row_width_one(self):
        delta = SparseDelta.dense_block(np.array([1.0, 0.0, 2.0]))
        assert delta.row_width == 1
        assert delta.num_values == 3

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseDelta((5, 2), np.array([1, 1]), np.zeros((2, 2)))

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SparseDelta((5, 2), np.array([3, 1]), np.zeros((2, 2)))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseDelta((5, 2), np.array([5]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="out of range"):
            SparseDelta((5, 2), np.array([-1]), np.zeros((1, 2)))

    def test_value_block_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values shape"):
            SparseDelta((5, 2), np.array([0, 1]), np.zeros((2, 3)))

    def test_mismatched_accumulator_rejected(self):
        delta = SparseDelta.dense_block(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="accumulator shape"):
            delta.add_into(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="accumulator shape"):
            delta.count_into(np.zeros((5, 2)))

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot merge"):
            SparseDelta.dense_block(np.zeros((4, 2))).merge(
                SparseDelta.dense_block(np.zeros((5, 2)))
            )

    def test_between_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SparseDelta.between(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_equality_is_by_content(self):
        a = SparseDelta.from_dense(np.eye(3))
        b = SparseDelta.from_dense(np.eye(3))
        c = SparseDelta.from_dense(2 * np.eye(3))
        assert a == b
        assert a != c
        assert a != "not a delta"

    def test_preserves_backend_dtype(self):
        dtype = active_backend().dtype
        dense = np.zeros((6, 2), dtype=dtype)
        dense[2] = 1.5
        delta = SparseDelta.from_dense(dense)
        assert delta.values.dtype == dtype
        assert delta.to_dense().dtype == dtype


class TestSparseDeltaSerialization:
    def test_state_dict_round_trip(self, rng):
        dense, touched = _random_case(rng)
        delta = SparseDelta.from_dense(dense, rows=touched)
        restored = SparseDelta.from_state_dict(delta.state_dict())
        assert restored == delta

    def test_state_dict_flattens_through_artifacts(self, rng):
        dense, touched = _random_case(rng)
        delta = SparseDelta.from_dense(dense, rows=touched)
        tree = {"buffer": {"item_embedding.weight": delta.state_dict()}}
        skeleton, arrays = flatten_state(tree)
        rebuilt = unflatten_state(skeleton, arrays)
        restored = SparseDelta.from_state_dict(
            rebuilt["buffer"]["item_embedding.weight"]
        )
        assert restored == delta

    def test_is_state_dict_discriminates(self):
        delta = SparseDelta.dense_block(np.zeros((2, 2)))
        assert SparseDelta.is_state_dict(delta.state_dict())
        assert not SparseDelta.is_state_dict({"kind": "other"})
        assert not SparseDelta.is_state_dict(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not a SparseDelta"):
            SparseDelta.from_state_dict({"kind": "other"})


class TestSparseParameterBytes:
    def test_formula(self):
        # 40 touched rows of a dim-32 table: one 4-byte index plus 32
        # 4-byte floats per row.
        assert sparse_parameter_bytes(40, 32) == 40 * (INT_BYTES + 32 * FLOAT_BYTES)

    def test_zero_rows_cost_nothing(self):
        assert sparse_parameter_bytes(0, 32) == 0

    def test_ciphertext_values(self):
        # FedMF: values are ciphertexts, indices stay plaintext.
        assert sparse_parameter_bytes(10, 8, value_bytes=64) == 10 * (INT_BYTES + 8 * 64)

    def test_full_table_costs_more_than_dense_by_index_overhead(self):
        num_rows, dim = 100, 16
        sparse = sparse_parameter_bytes(num_rows, dim)
        dense = dense_parameter_bytes(num_rows * dim)
        assert sparse == dense + num_rows * INT_BYTES

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            sparse_parameter_bytes(-1, 4)
        with pytest.raises(ValueError):
            sparse_parameter_bytes(4, -1)
