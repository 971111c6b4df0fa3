"""Bit-identity sweep for the bounded-memory execution path.

The tentpole contract of the sparse/sharded engine: ``payload="sparse"``
and ``shard_size=N`` are pure memory knobs — every trainer in the registry
produces ``==``-identical training results (history, final metrics, model
parameters) under every scheduler, with and without partial participation
and fault injection.  Communication is the one quantity that legitimately
changes: sparse uploads are metered from the rows actually shipped, which
this module pins against independently re-derived per-client touched
counts (the over-counting fix for the Table IV reproduction).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.artifacts import CheckpointEveryK
from repro.data import debug_dataset
from repro.data.dataset import InteractionDataset
from repro.engine import EngineSpec, PAYLOAD_FORMATS, stack_models
from repro.experiments.registry import available_trainers, get_trainer
from repro.experiments.result import RunResult
from repro.experiments.spec import ExperimentSpec
from repro.federated.base import build_local_plan
from repro.federated.communication import (
    FLOAT_BYTES,
    INT_BYTES,
    dense_parameter_bytes,
    sparse_parameter_bytes,
)
from repro.federated.fcf import FCF
from repro.federated.fedmf import FedMF
from repro.federated.metamf import MetaMF
from repro.utils.rng import RngFactory

SCHEDULERS = ("serial", "batched")
ALL_TRAINERS = ("ptf", "fcf", "fedmf", "metamf", "centralized")
#: Trainers whose parameter exchange actually changes format under
#: ``payload="sparse"`` — their ledger legitimately differs from dense.
SPARSE_EXCHANGE_TRAINERS = ("fcf", "fedmf", "metamf")

ASYNC_FAULTS = {
    "dropout": 0.3,
    "deadline": 1.0,
    "latency_range": (0.5, 2.5),
    "aggregation": "async",
    "max_staleness": 2,
}


def _dataset():
    """The sweep's dataset — rebuilt identically for every run."""
    return debug_dataset(RngFactory(12345).spawn("scale-data"), num_users=25,
                         num_items=50, num_interactions=500)


def _spec(trainer, scheduler="serial", payload="dense", shard_size=0,
          scenario=None, rounds=2, client_fraction=1.0):
    return ExperimentSpec(
        trainer=trainer,
        protocol={"rounds": rounds, "client_local_epochs": 1,
                  "server_epochs": 1, "client_fraction": client_fraction},
        evaluation={"max_users": 6},
        engine={"scheduler": scheduler, "payload": payload,
                "shard_size": shard_size},
        scenario=scenario or {},
    )


def _training_fingerprint(result: RunResult):
    """Everything that must be bit-identical regardless of payload format."""
    return (
        [record.to_dict() for record in result.history],
        result.final,
        result.participation,
    )


_REFERENCE_CACHE = {}


def _dense_reference(trainer, **spec_overrides) -> RunResult:
    key = (trainer, repr(sorted(spec_overrides.items())))
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = repro.run(
            _spec(trainer, **dict(spec_overrides)), _dataset()
        )
    return _REFERENCE_CACHE[key]


def _serving_parameters(spec, dataset):
    adapter = get_trainer(spec.trainer)(spec, dataset)
    adapter.fit()
    return {
        name: parameter.data.copy()
        for name, parameter in adapter.serving_model().named_parameters()
    }


class TestRegistryCoverage:
    def test_sweep_covers_every_registered_trainer(self):
        assert set(ALL_TRAINERS) == set(available_trainers())

    def test_payload_formats_exported(self):
        assert PAYLOAD_FORMATS == ("dense", "sparse")
        with pytest.raises(ValueError, match="payload"):
            EngineSpec(payload="compressed")
        with pytest.raises(ValueError, match="shard_size"):
            EngineSpec(shard_size=-1)


# ----------------------------------------------------------------------
# The tentpole sweep: every trainer × every scheduler × sparse + sharded
# ----------------------------------------------------------------------
class TestSparseShardedIdentity:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_matches_dense_serial_reference(self, trainer, scheduler):
        reference = _dense_reference(trainer)
        result = repro.run(
            _spec(trainer, scheduler=scheduler, payload="sparse", shard_size=4),
            _dataset(),
        )
        assert _training_fingerprint(result) == _training_fingerprint(reference)
        if trainer not in SPARSE_EXCHANGE_TRAINERS:
            # PTF's exchange is natively sparse and the centralized trainer
            # has no exchange at all: the knob must be a complete no-op.
            assert result.communication == reference.communication

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("trainer", ["fcf", "fedmf", "metamf", "ptf"])
    def test_dense_sharding_changes_nothing_at_all(self, trainer, scheduler):
        """shard_size alone is invisible — including on the wire."""
        reference = _dense_reference(trainer)
        result = repro.run(
            _spec(trainer, scheduler=scheduler, payload="dense", shard_size=3),
            _dataset(),
        )
        assert _training_fingerprint(result) == _training_fingerprint(reference)
        assert result.communication == reference.communication

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "metamf"])
    def test_partial_participation(self, trainer, scheduler):
        reference = _dense_reference(trainer, client_fraction=0.5)
        result = repro.run(
            _spec(trainer, scheduler=scheduler, payload="sparse", shard_size=4,
                  client_fraction=0.5),
            _dataset(),
        )
        assert _training_fingerprint(result) == _training_fingerprint(reference)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "fedmf"])
    def test_with_fault_injection(self, trainer, scheduler):
        """Sparse + sharded under churn/async staleness still replays the
        dense scenario event stream exactly (incl. the sparse stale buffer)."""
        reference = _dense_reference(trainer, scenario=ASYNC_FAULTS, rounds=4)
        result = repro.run(
            _spec(trainer, scheduler=scheduler, payload="sparse", shard_size=4,
                  scenario=ASYNC_FAULTS, rounds=4),
            _dataset(),
        )
        assert _training_fingerprint(result) == _training_fingerprint(reference)

    @pytest.mark.parametrize("trainer", ["fcf", "metamf"])
    def test_served_model_parameters_are_bitwise_equal(self, trainer):
        dense = _serving_parameters(_spec(trainer), _dataset())
        sparse = _serving_parameters(
            _spec(trainer, scheduler="batched", payload="sparse", shard_size=4),
            _dataset(),
        )
        assert dense.keys() == sparse.keys()
        for name in dense:
            np.testing.assert_array_equal(dense[name], sparse[name], err_msg=name)


# ----------------------------------------------------------------------
# Row-compact stacking: one client phase, batched vs serial, == everywhere
# ----------------------------------------------------------------------
COMPACT_USERS = 10
COMPACT_ITEMS = 40
COMPACT_TRAINERS = {"fcf": FCF, "fedmf": FedMF, "metamf": MetaMF}


def _compact_dataset():
    """Nine users on a 40-item catalogue, and user 9 with no training
    positives.  Users 1, 4 and 7 have four positives, the rest three, so
    two batch signatures interleave in cohort order.  Negatives collide
    often enough that touched-row counts differ within a signature, and
    every user shares positives 0 and 1, so those rows sum nine deltas."""
    train = [(user, item) for user in range(COMPACT_USERS - 1)
             for item in [0, 1, 2 + user, 20 + user][:3 + (user % 3 == 1)]]
    return InteractionDataset(COMPACT_USERS, COMPACT_ITEMS, train,
                              test_pairs=[(COMPACT_USERS - 1, 0)], name="compact")


def _client_phase(trainer, scheduler, payload, shard_size):
    dataset = _compact_dataset()
    spec = ExperimentSpec(
        trainer=trainer, seed=5,
        protocol={"client_local_epochs": 2},
        engine={"scheduler": scheduler, "payload": payload, "shard_size": shard_size},
    )
    driver = COMPACT_TRAINERS[trainer](dataset, spec)
    losses, delta_sum, update_count = driver.engine.train_fedavg_clients(
        driver, list(range(COMPACT_USERS)), 0, driver._public_state()
    )
    model = driver.model
    return {
        "driver": driver,
        "losses": losses,
        "delta_sum": delta_sum,
        "update_count": update_count,
        "item_counts": model.item_update_counts(),
        "user_counts": model.user_embedding.update_counts.copy(),
        "user_rows": model.user_embedding.weight.data.copy(),
        "touched": driver.engine.pop_touched(),
    }


class TestRowCompactStacking:
    @pytest.mark.parametrize("shard_size", [0, 3])
    @pytest.mark.parametrize("payload", PAYLOAD_FORMATS)
    @pytest.mark.parametrize("trainer", sorted(COMPACT_TRAINERS))
    def test_batched_client_phase_equals_serial(self, trainer, payload, shard_size,
                                                monkeypatch):
        import repro.engine.schedulers as schedulers

        stacked_models = []

        def recording_stack_models(*args, **kwargs):
            stacked = stack_models(*args, **kwargs)
            stacked_models.append(stacked)
            return stacked

        monkeypatch.setattr(schedulers, "stack_models", recording_stack_models)
        serial = _client_phase(trainer, "serial", payload, shard_size)
        batched = _client_phase(trainer, "batched", payload, shard_size)

        assert batched["losses"] == serial["losses"]
        assert batched["losses"][COMPACT_USERS - 1] == 0.0
        for key in ("delta_sum", "update_count"):
            assert batched[key].keys() == serial[key].keys()
            for name in serial[key]:
                assert np.array_equal(batched[key][name], serial[key][name]), (key, name)
        for key in ("item_counts", "user_counts", "user_rows"):
            assert np.array_equal(batched[key], serial[key]), key
        assert batched["touched"] == serial["touched"]
        assert bool(batched["touched"]) == (payload == "sparse")

        # The item table is stacked as each client's touched rows, padded to
        # the group's widest client — never the whole catalogue.
        driver = batched["driver"]
        item_table = driver._item_row_parameter_names()[0]
        ragged = False
        for stacked in stacked_models:
            counts = [rows.size for rows in stacked.item_rows]
            ragged |= len(set(counts)) > 1
            (data,) = [p.data for name, p, kind in stacked.entries
                       if name == item_table and kind == "items"]
            assert data.shape == (stacked.cohort, max(counts),
                                  driver.spec.model.embedding_dim)
            assert max(counts) < COMPACT_ITEMS
        assert ragged, "no group stacked clients of different widths"
        if shard_size == 0:
            assert sorted(stacked.cohort for stacked in stacked_models) == [3, 6]


# ----------------------------------------------------------------------
# Checkpoint / resume with the sparse execution path
# ----------------------------------------------------------------------
class TestSparseResume:
    def test_sparse_async_scenario_resume_bit_identical(self, tmp_path):
        """The sparse stale buffer round-trips through checkpoints."""
        spec = _spec("fcf", scheduler="batched", payload="sparse", shard_size=4,
                     scenario=ASYNC_FAULTS, rounds=4)
        full = repro.run(spec, _dataset())
        callback = CheckpointEveryK(tmp_path / "ckpt", every=2)
        repro.run(spec.replace(rounds=2), _dataset(), callbacks=[callback])
        checkpoints = sorted((tmp_path / "ckpt").iterdir())
        resumed = repro.run(spec, _dataset(), resume_from=checkpoints[-1])
        assert _training_fingerprint(resumed) == _training_fingerprint(full)
        assert resumed.communication == full.communication

    def test_engine_knobs_are_resume_compatible(self, tmp_path):
        """A dense-checkpointed run may resume sparse+sharded: the engine
        section is execution strategy, not experiment identity."""
        dense = _spec("fcf", rounds=4)
        callback = CheckpointEveryK(tmp_path / "ckpt", every=2)
        repro.run(dense.replace(rounds=2), _dataset(), callbacks=[callback])
        checkpoint = sorted((tmp_path / "ckpt").iterdir())[-1]
        sparse = _spec("fcf", scheduler="batched", payload="sparse",
                       shard_size=4, rounds=4)
        resumed = repro.run(sparse, _dataset(), resume_from=checkpoint)
        reference = repro.run(dense, _dataset())
        assert _training_fingerprint(resumed) == _training_fingerprint(reference)


# ----------------------------------------------------------------------
# Communication metering: the ledger reports what actually moves
# ----------------------------------------------------------------------
def _driver_config(trainer="fcf", payload="dense", scheduler="batched"):
    return ExperimentSpec.from_flat(
        trainer=trainer, seed=9, rounds=2, client_local_epochs=1,
        scheduler=scheduler, payload=payload, shard_size=4,
    )


def _expected_touched_rows(driver, user, round_index):
    """Re-derive a client's touched item rows from scratch (a fresh, live
    ``spawn_indexed`` stream, not the cohort seeding kernel)."""
    positives = driver.dataset.train_items(user)
    if positives.size == 0:
        return 0
    rng = RngFactory(driver.spec.seed).spawn_indexed(
        "local-sampling", user * 100_003 + round_index
    )
    plan = build_local_plan(
        driver.spec.protocol, rng, user, positives, driver.dataset.num_items,
    )
    return int(plan.touched_items().size)


class TestSparseMeteringRegression:
    """The Table IV over-counting fix: FedAvg uploads were metered as full
    dense tables even though only the touched rows carry information."""

    def test_dense_meter_pinned(self):
        ds = _dataset()
        driver = FCF(ds, _driver_config(payload="dense"))
        driver.fit()
        table_bytes = dense_parameter_bytes(ds.num_items * driver.spec.model.embedding_dim)
        uploads = [r for r in driver.ledger.records if r.direction == "upload"]
        assert uploads and all(r.num_bytes == table_bytes for r in uploads)
        # Per client-round: one download + one upload of the full table.
        assert driver.ledger.average_client_round_bytes() == 2 * table_bytes

    def test_sparse_uploads_match_rederived_touched_counts(self):
        ds = _dataset()
        driver = FCF(ds, _driver_config(payload="sparse"))
        driver.fit()
        dim = driver.spec.model.embedding_dim
        uploads = [r for r in driver.ledger.records if r.direction == "upload"]
        assert uploads, "no uploads metered"
        for record in uploads:
            assert record.description == "FCF sparse parameter update"
            expected = sparse_parameter_bytes(
                _expected_touched_rows(driver, record.client_id, record.round_index),
                dim,
            )
            assert record.num_bytes == expected, (
                f"client {record.client_id} round {record.round_index}"
            )
        # The download leg stays a dense broadcast.
        downloads = [r for r in driver.ledger.records if r.direction == "download"]
        table_bytes = dense_parameter_bytes(ds.num_items * dim)
        assert all(r.num_bytes == table_bytes for r in downloads)

    def test_fedmf_sparse_values_stay_ciphertexts(self):
        ds = _dataset()
        driver = FedMF(ds, _driver_config("fedmf", payload="sparse"))
        driver.fit()
        for record in driver.ledger.records:
            if record.direction != "upload":
                continue
            touched = _expected_touched_rows(driver, record.client_id, record.round_index)
            assert record.num_bytes == sparse_parameter_bytes(
                touched, driver.spec.model.embedding_dim,
                value_bytes=driver.ciphertext_bytes,
            )

    def test_metamf_meta_networks_ship_as_dense_blocks(self):
        ds = _dataset()
        driver = MetaMF(ds, _driver_config("metamf", payload="sparse"))
        driver.fit()
        dim = driver.spec.model.embedding_dim
        # Meta nets move whole, with no per-row index overhead.
        meta_bytes = (2 * dim * dim + 2 * dim) * FLOAT_BYTES
        for record in driver.ledger.records:
            if record.direction != "upload":
                continue
            touched = _expected_touched_rows(driver, record.client_id, record.round_index)
            assert record.num_bytes == (
                sparse_parameter_bytes(touched, dim) + meta_bytes
            )

    def test_sparse_beats_dense_on_sparse_interactions(self):
        """With a large catalogue and few interactions per client, sparse
        uploads are dramatically cheaper — the quantity the dense meter
        over-counted."""
        ds = debug_dataset(RngFactory(7).spawn("wide-data"), num_users=6,
                           num_items=400, num_interactions=60)
        dense = FCF(ds, _driver_config(payload="dense"))
        dense.fit()
        sparse = FCF(ds, _driver_config(payload="sparse"))
        sparse.fit()

        def upload_total(driver):
            return sum(r.num_bytes for r in driver.ledger.records
                       if r.direction == "upload")

        assert upload_total(sparse) < upload_total(dense) / 4
        # ... while training identically.
        for (name, a), (_, b) in zip(dense.model.named_parameters(),
                                     sparse.model.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_index_bytes_are_charged(self):
        """Sparse metering includes the row indices, not just the values —
        a full-table sparse payload costs *more* than the dense broadcast."""
        num_rows, dim = 50, 32
        assert sparse_parameter_bytes(num_rows, dim) == (
            dense_parameter_bytes(num_rows * dim) + num_rows * INT_BYTES
        )
