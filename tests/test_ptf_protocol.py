"""Integration tests for the end-to-end PTF-FedRec protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PTFFedRec
from repro.experiments import ExperimentSpec
from repro.federated import FCF
from repro.federated.communication import prediction_triple_bytes


def _config(**overrides):
    defaults = dict(
        rounds=3,
        client_local_epochs=2,
        server_epochs=1,
        embedding_dim=8,
        client_mlp_layers=(16, 8),
        server_num_layers=2,
        alpha=10,
        server_model="ngcf",
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentSpec.from_flat(trainer="ptf", **defaults)


class TestProtocolRounds:
    def test_round_summary_bookkeeping(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(rounds=1))
        summary = system.run_round(0)
        assert summary.num_clients == len(tiny_dataset.users)
        assert summary.uploaded_records > 0
        assert summary.dispersed_records > 0
        assert np.isfinite(summary.client_loss)
        assert np.isfinite(summary.server_loss)

    def test_fit_runs_all_rounds_and_continues(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(rounds=2))
        system.fit()
        assert len(system.round_summaries) == 2
        system.fit(rounds=1)
        assert len(system.round_summaries) == 3
        assert [s.round_index for s in system.round_summaries] == [0, 1, 2]

    def test_spec_naming_another_trainer_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="trainer"):
            PTFFedRec(tiny_dataset, ExperimentSpec(trainer="fcf"))

    def test_client_fraction_selects_subset(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(client_fraction=0.2, rounds=1))
        summary = system.run_round(0)
        assert summary.num_clients == max(1, round(0.2 * len(tiny_dataset.users)))

    def test_clients_receive_dispersal_after_round(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(rounds=1))
        system.fit()
        sizes = [client.server_items.size for client in system.clients.values()]
        assert max(sizes) > 0

    def test_deterministic_given_seed(self, tiny_dataset):
        def run():
            system = PTFFedRec(tiny_dataset, _config(rounds=2, seed=4))
            system.fit()
            return system.evaluate(k=10, max_users=10).ndcg

        assert run() == pytest.approx(run())

    @pytest.mark.parametrize("server_model", ["neumf", "ngcf", "lightgcn"])
    def test_all_server_models_complete_a_round(self, tiny_dataset, server_model):
        system = PTFFedRec(tiny_dataset, _config(rounds=1, server_model=server_model))
        system.fit()
        result = system.evaluate(k=10, max_users=10)
        assert 0.0 <= result.recall <= 1.0


class TestDispersalPropagation:
    """The server's graph model propagates once per round's dispersal."""

    @pytest.mark.parametrize("scheduler", ["serial", "batched"])
    def test_one_propagation_serves_every_client(self, tiny_dataset, monkeypatch, scheduler):
        from repro.core.server import PTFServer
        from repro.models.ngcf import NGCF

        calls = {"propagate": 0}
        real_propagate = NGCF.propagate
        real_train = PTFServer.train_on_uploads

        def counting_propagate(model):
            calls["propagate"] += 1
            return real_propagate(model)

        def train_then_reset(server, *args, **kwargs):
            loss = real_train(server, *args, **kwargs)
            calls["propagate"] = 0  # count the dispersal only
            return loss

        monkeypatch.setattr(NGCF, "propagate", counting_propagate)
        monkeypatch.setattr(PTFServer, "train_on_uploads", train_then_reset)
        system = PTFFedRec(tiny_dataset, _config(rounds=1, scheduler=scheduler))
        summary = system.run_round(0)

        assert summary.num_clients > 1 and summary.dispersed_records > 0
        assert calls["propagate"] == 1
        assert system.server.model.training  # training mode is restored


class TestModelPrivacyInvariants:
    def test_no_model_parameters_cross_the_wire(self, tiny_dataset):
        # The core claim of the paper: every transmitted byte is a
        # prediction triple, never a parameter matrix.
        system = PTFFedRec(tiny_dataset, _config(rounds=1))
        system.fit()
        for record in system.ledger.records:
            assert record.num_bytes % prediction_triple_bytes(1) == 0
        server_parameter_bytes = 4 * sum(p.size for p in system.server.model.parameters())
        largest_transfer = max(record.num_bytes for record in system.ledger.records)
        assert largest_transfer < server_parameter_bytes

    def test_server_and_client_models_are_heterogeneous(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(server_model="lightgcn"))
        client = next(iter(system.clients.values()))
        assert type(system.server.model).__name__ == "LightGCN"
        assert type(client.model).__name__ == "NeuMF"

    def test_server_never_stores_raw_client_positives(self, tiny_dataset):
        # The server only sees uploads; its training data are (item, score)
        # pairs, so check the server object holds no reference to the
        # clients' private arrays.
        system = PTFFedRec(tiny_dataset, _config(rounds=1))
        system.fit()
        client_arrays = {id(client.positive_items) for client in system.clients.values()}
        server_attrs = vars(system.server)
        for value in server_attrs.values():
            assert id(value) not in client_arrays


class TestCommunicationAndPrivacy:
    def test_ptf_communication_is_orders_of_magnitude_below_fcf(self, tiny_dataset):
        ptf = PTFFedRec(tiny_dataset, _config(rounds=1))
        ptf.fit()
        fcf = FCF(tiny_dataset, ExperimentSpec.from_flat(
            trainer="fcf", rounds=1, client_local_epochs=1, embedding_dim=32,
        ))
        fcf.fit()
        assert fcf.average_client_round_kilobytes() > 5 * ptf.average_client_round_kilobytes()

    def test_privacy_audit_defended_below_undefended(self, tiny_dataset):
        protected = PTFFedRec(tiny_dataset, _config(rounds=1, defense="sampling+swapping"))
        protected.fit()
        exposed = PTFFedRec(tiny_dataset, _config(rounds=1, defense="none"))
        exposed.fit()
        assert exposed.audit_privacy().mean_f1 > protected.audit_privacy().mean_f1

    def test_audit_before_training_is_empty(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config())
        report = system.audit_privacy()
        assert report.num_clients == 0

    def test_evaluate_client_models_returns_result(self, tiny_dataset):
        system = PTFFedRec(tiny_dataset, _config(rounds=1))
        system.fit()
        result = system.evaluate_client_models(k=10, max_users=5)
        assert result.num_users_evaluated == 5
        assert 0.0 <= result.recall <= 1.0


class TestLearningProgress:
    def test_server_model_beats_untrained_initialization(self, small_dataset):
        # The miniature datasets need a smaller server batch and a slightly
        # larger learning rate than the paper's full-scale defaults so that
        # the server sees enough optimizer steps within a handful of rounds.
        config = _config(
            rounds=8,
            client_local_epochs=2,
            server_epochs=3,
            server_batch_size=128,
            learning_rate=0.01,
            alpha=15,
        )
        system = PTFFedRec(small_dataset, config)
        before = system.evaluate(k=10)
        system.fit()
        after = system.evaluate(k=10)
        assert after.recall > before.recall
        assert after.ndcg > before.ndcg
        assert system.round_summaries[-1].server_loss < system.round_summaries[0].server_loss
