"""Tests for the client-simulation execution engine (repro.engine).

The engine's contract is strict: every scheduler produces *bit-identical*
results to the serial reference path on a fixed seed.  The equivalence
tests therefore compare with ``==``, not ``pytest.approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.client import PTFClient
from repro.data import debug_dataset
from repro.engine import (
    ClientBatch,
    ClientTrainingPlan,
    EngineSpec,
    Scheduler,
    BatchedScheduler,
    create_scheduler,
    stack_models,
)
from repro.experiments import ExperimentSpec
from repro.utils import RngFactory


def tiny_spec(trainer: str, scheduler: str = "serial", **overrides) -> ExperimentSpec:
    defaults = dict(
        rounds=3,
        client_local_epochs=2,
        server_epochs=1,
        client_batch_size=16,
        server_batch_size=64,
        embedding_dim=8,
        client_mlp_layers=(16, 8),
        server_model="mf",
        local_learning_rate=0.05,
        alpha=10,
        max_users=8,
    )
    defaults.update(overrides)
    spec = ExperimentSpec.from_flat(trainer=trainer, seed=7, **defaults)
    return spec.replace(scheduler=scheduler)


@pytest.fixture
def dataset():
    return debug_dataset(RngFactory(5).spawn("engine-data"), num_users=10,
                         num_items=40, num_interactions=200)


def run_history(result):
    return [record.metrics for record in result.history]


# ----------------------------------------------------------------------
# EngineSpec validation and spec integration
# ----------------------------------------------------------------------
class TestEngineSpec:
    def test_defaults(self):
        spec = EngineSpec()
        assert spec.scheduler == "serial"
        assert spec.shard_size == 0

    @pytest.mark.parametrize("bad", [
        {"scheduler": "teleport"},
        {"scheduler": "multiprocess"},
        {"payload": "zip"},
        {"shard_size": -1},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            EngineSpec(**bad)

    def test_experiment_spec_round_trip(self):
        spec = ExperimentSpec(trainer="ptf", engine={"scheduler": "batched",
                                                     "shard_size": 32})
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.engine.scheduler == "batched"
        assert restored.engine.shard_size == 32
        assert restored == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("fallback", ["serial", "error"])
    def test_stored_engine_with_removed_knobs_loads(self, fallback):
        stored = ExperimentSpec(trainer="ptf").to_dict()
        stored["engine"].update(max_cohort=128, fallback=fallback)
        spec = ExperimentSpec.from_dict(stored)
        assert spec.engine == EngineSpec()
        assert spec == ExperimentSpec(trainer="ptf")

    def test_flat_field_access(self):
        spec = ExperimentSpec.from_flat(trainer="ptf", scheduler="batched",
                                        shard_size=2)
        assert spec.engine.scheduler == "batched"
        assert spec.engine.shard_size == 2

    @pytest.mark.parametrize("name,cls", [
        ("serial", Scheduler),
        ("batched", BatchedScheduler),
    ])
    def test_create_scheduler(self, name, cls):
        scheduler = create_scheduler(EngineSpec(scheduler=name))
        assert type(scheduler) is cls
        assert scheduler.name == name

    def test_create_scheduler_default_is_serial(self):
        assert create_scheduler().name == "serial"


# ----------------------------------------------------------------------
# Bit-identical equivalence across schedulers
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "fedmf"])
    def test_batched_matches_serial(self, trainer, dataset):
        serial = repro.run(tiny_spec(trainer, "serial"), dataset)
        batched = repro.run(tiny_spec(trainer, "batched"), dataset)
        assert serial.final.as_dict() == batched.final.as_dict()
        assert run_history(serial) == run_history(batched)
        assert serial.communication.to_dict() == batched.communication.to_dict()

    def test_batched_matches_serial_metamf(self, dataset):
        serial = repro.run(tiny_spec("metamf", "serial"), dataset)
        batched = repro.run(tiny_spec("metamf", "batched"), dataset)
        assert serial.final.as_dict() == batched.final.as_dict()
        assert run_history(serial) == run_history(batched)

    def test_batched_matches_serial_with_partial_participation(self, dataset):
        serial = repro.run(tiny_spec("ptf", "serial", client_fraction=0.5), dataset)
        batched = repro.run(tiny_spec("ptf", "batched", client_fraction=0.5), dataset)
        assert serial.final.as_dict() == batched.final.as_dict()
        assert run_history(serial) == run_history(batched)

    def test_batched_matches_serial_small_cohort_chunks(self, dataset):
        serial = repro.run(tiny_spec("ptf", "serial"), dataset)
        chunked = repro.run(
            tiny_spec("ptf", "batched").replace(shard_size=3), dataset
        )
        assert serial.final.as_dict() == chunked.final.as_dict()
        assert run_history(serial) == run_history(chunked)

    def test_batched_client_states_match_serial(self):
        """Not just metrics: every model parameter must match bitwise."""
        spec = tiny_spec("ptf")

        def build_clients(engine_spec):
            rngs = RngFactory(3)
            rng = np.random.default_rng(11)
            clients = {
                u: PTFClient(user_id=u, num_items=30,
                             positive_items=np.sort(rng.choice(30, size=6, replace=False)),
                             config=spec, rngs=rngs)
                for u in range(6)
            }
            scheduler = create_scheduler(engine_spec)
            for round_index in range(2):
                scheduler.train_ptf_clients(clients, list(clients), round_index)
            return clients

        serial = build_clients(EngineSpec(scheduler="serial"))
        batched = build_clients(EngineSpec(scheduler="batched"))
        for user in serial:
            a = dict(serial[user].model.named_parameters())
            b = dict(batched[user].model.named_parameters())
            assert a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(
                    a[name].data, b[name].data,
                    err_msg=f"user {user} parameter {name}",
                )
            for attr in ("item_embedding_gmf", "item_embedding_mlp"):
                np.testing.assert_array_equal(
                    getattr(serial[user].model, attr).update_counts,
                    getattr(batched[user].model, attr).update_counts,
                )


# ----------------------------------------------------------------------
# Engine building blocks
# ----------------------------------------------------------------------
class TestClientBatch:
    def make_clients(self, n=4, num_items=25, positives=5):
        spec = tiny_spec("ptf")
        rngs = RngFactory(1)
        rng = np.random.default_rng(2)
        return [
            PTFClient(user_id=u, num_items=num_items,
                      positive_items=np.sort(rng.choice(num_items, size=positives,
                                                        replace=False)),
                      config=spec, rngs=rngs)
            for u in range(n)
        ]

    def test_plan_signature_groups_equal_shapes(self):
        clients = self.make_clients()
        plans = [client.training_plan(0) for client in clients]
        signatures = {plan.signature for plan in plans}
        assert len(signatures) == 1  # equal positives -> equal batch shapes
        assert plans[0].num_batches > 0

    def test_mismatched_signatures_rejected(self):
        clients = self.make_clients()
        plans = [client.training_plan(0) for client in clients]
        items, labels = plans[1].epochs[0][0]
        plans[1].epochs[0][0] = (items[:-1], labels[:-1])
        with pytest.raises(ValueError, match="signature"):
            ClientBatch.for_ptf_clients(clients, plans)

    def test_zero_interaction_client_has_no_plan(self):
        spec = tiny_spec("ptf")
        client = PTFClient(user_id=0, num_items=10,
                           positive_items=np.empty(0, dtype=np.int64),
                           config=spec, rngs=RngFactory(0))
        assert client.training_plan(0) is None
        assert client.local_train(0) == 0.0

    def test_stack_models_rejects_unknown_architecture(self):
        class Strange:
            pass

        assert stack_models([Strange()], user_rows=[0]) is None

    def test_fallback_serial_for_unsupported_model(self, dataset):
        # A client model with no stacked implementation trains on the
        # serial path: the scheduler calls its own ``local_train``.
        scheduler = create_scheduler(EngineSpec(scheduler="batched"))

        class FakeClient:
            def __init__(self):
                self.model = object()
                self.user_id = 0

            def training_plan(self, round_index):
                return ClientTrainingPlan(
                    user_id=0,
                    epochs=[[(np.zeros(2, dtype=np.int64), np.zeros(2))]],
                )

            def local_train(self, round_index):
                return 0.25 + round_index

        assert scheduler.train_ptf_clients({0: FakeClient()}, [0], 3) == {0: 3.25}


class TestGraphClientModels:
    """NGCF and LightGCN clients cannot be stacked; ``batched`` still runs them.

    The batched scheduler trains such cohorts one client at a time on the
    serial path, so the result is the serial reference bit for bit.
    """

    @pytest.mark.parametrize("client_model", ["ngcf", "lightgcn"])
    def test_batched_falls_back_to_serial_results(self, client_model, dataset):
        serial = repro.run(tiny_spec("ptf", "serial", client_model=client_model),
                           dataset)
        batched = repro.run(tiny_spec("ptf", "batched", client_model=client_model),
                            dataset)
        assert serial.final.as_dict() == batched.final.as_dict()
        assert run_history(serial) == run_history(batched)
        assert serial.communication == batched.communication


class TestOptimizerStateTransfer:
    def test_adam_state_survives_pickle(self):
        """Index-keyed optimizer state must stay attached across pickling."""
        import pickle

        spec = tiny_spec("ptf")
        client = PTFClient(user_id=0, num_items=20,
                           positive_items=np.array([1, 3, 5]),
                           config=spec, rngs=RngFactory(0))
        client.local_train(0)
        assert client.optimizer.has_state()
        restored = pickle.loads(pickle.dumps(client))
        loss_a = client.local_train(1)
        loss_b = restored.local_train(1)
        assert loss_a == loss_b
        for (_, p), (_, q) in zip(client.model.named_parameters(),
                                  restored.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)
