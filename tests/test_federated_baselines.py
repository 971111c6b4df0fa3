"""Tests for the parameter transmission-based FedRec baselines."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.experiments import ExperimentSpec
from repro.federated import FCF, FedMF, MetaMF
from repro.federated.metamf import MetaMFModel

FEDAVG_SYSTEMS = {"fcf": FCF, "fedmf": FedMF, "metamf": MetaMF}


def _config(trainer="fcf", **overrides):
    defaults = dict(rounds=2, client_local_epochs=1, embedding_dim=8)
    defaults.update(overrides)
    return ExperimentSpec.from_flat(trainer=trainer, seed=3, **defaults)


class TestFederatedConfig:
    """The FedAvg drivers' settings come from their ExperimentSpec."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"rounds": 0}, {"client_local_epochs": 0}, {"client_fraction": 0.0},
         {"client_fraction": 1.5}],
    )
    def test_invalid_values_rejected(self, tiny_dataset, kwargs):
        with pytest.raises(ValueError):
            FCF(tiny_dataset, _config(**kwargs))

    @pytest.mark.parametrize("trainer", sorted(FEDAVG_SYSTEMS))
    def test_zero_local_epochs_rejected(self, tiny_dataset, trainer):
        # ProtocolSpec allows 0 (a PTF ablation); a FedAvg round cannot.
        spec = _config(trainer, client_local_epochs=0)
        with pytest.raises(ValueError, match="client_local_epochs"):
            FEDAVG_SYSTEMS[trainer](tiny_dataset, spec)
        with pytest.raises(ValueError, match="client_local_epochs"):
            repro.run(spec, tiny_dataset)

    @pytest.mark.parametrize("trainer", sorted(FEDAVG_SYSTEMS))
    def test_spec_naming_another_trainer_rejected(self, tiny_dataset, trainer):
        other = "fedmf" if trainer == "fcf" else "fcf"
        with pytest.raises(ValueError, match="trainer"):
            FEDAVG_SYSTEMS[trainer](tiny_dataset, _config(other))

    def test_no_spec_gives_trainer_defaults(self, tiny_dataset):
        system = FedMF(tiny_dataset)
        assert system.spec == ExperimentSpec(trainer="fedmf")
        assert system.payload_format == "dense"


class TestProtocolMechanics:
    def test_fcf_round_touches_every_client(self, tiny_dataset):
        system = FCF(tiny_dataset, _config())
        system.run_round(0)
        clients_with_traffic = {record.client_id for record in system.ledger.records}
        assert clients_with_traffic == set(tiny_dataset.users)

    def test_client_fraction_limits_participation(self, tiny_dataset):
        system = FCF(tiny_dataset, _config(client_fraction=0.2))
        system.run_round(0)
        clients_with_traffic = {record.client_id for record in system.ledger.records}
        assert len(clients_with_traffic) == max(1, round(0.2 * len(tiny_dataset.users)))

    def test_public_parameters_change_after_round(self, tiny_dataset):
        system = FCF(tiny_dataset, _config())
        before = system.model.item_embedding.weight.data.copy()
        system.run_round(0)
        after = system.model.item_embedding.weight.data
        assert not np.allclose(before, after)

    def test_fcf_model_has_no_bias_terms(self, tiny_dataset):
        # Faithful to the original FCF: plain dot-product factorization.
        system = FCF(tiny_dataset, _config())
        assert not system.model.use_bias

    def test_user_embeddings_stay_private_between_clients(self, tiny_dataset):
        # A user's embedding row must only be touched while that user trains;
        # FedAvg aggregation never mixes user rows.
        system = FCF(tiny_dataset, _config())
        users = tiny_dataset.users
        absent_user = max(users) if max(users) not in users[:1] else users[-1]
        before = system.model.user_embedding.weight.data[absent_user].copy()
        # Run a round restricted to a different single client.
        system.spec.protocol.client_fraction = 1.0 / len(users)
        system.run_round(0)
        trained = {record.client_id for record in system.ledger.records}
        if absent_user not in trained:
            after = system.model.user_embedding.weight.data[absent_user]
            np.testing.assert_array_equal(before, after)

    def test_fit_runs_requested_rounds(self, tiny_dataset):
        system = FCF(tiny_dataset, _config(rounds=3))
        system.fit()
        assert system.rounds_completed == 3
        assert set(system.ledger.bytes_per_round()) == {0, 1, 2}

    def test_training_improves_over_initialization(self, tiny_dataset):
        config = _config(rounds=6, client_local_epochs=2, local_learning_rate=0.1)
        system = FCF(tiny_dataset, config)
        before = system.evaluate(k=10)
        system.fit()
        after = system.evaluate(k=10)
        # Federated MF learns slowly at this tiny scale; require that the
        # ranking quality does not regress and that NDCG improves.
        assert after.ndcg >= before.ndcg
        assert after.recall >= before.recall - 1e-6

    def test_evaluation_returns_ranking_result(self, tiny_dataset):
        system = FCF(tiny_dataset, _config())
        result = system.evaluate(k=5, max_users=10)
        assert 0.0 <= result.recall <= 1.0
        assert result.k == 5


class TestCommunicationCosts:
    def test_fcf_cost_matches_item_table_size(self, tiny_dataset):
        system = FCF(tiny_dataset, _config())
        system.run_round(0)
        expected = 2 * 4 * (tiny_dataset.num_items * 8)
        assert system.ledger.average_client_round_bytes() == pytest.approx(expected)

    def test_fedmf_is_more_expensive_than_fcf(self, tiny_dataset):
        fcf = FCF(tiny_dataset, _config())
        fedmf = FedMF(tiny_dataset, _config("fedmf"))
        fcf.run_round(0)
        fedmf.run_round(0)
        assert (
            fedmf.average_client_round_kilobytes()
            > 5 * fcf.average_client_round_kilobytes()
        )

    def test_fedmf_ciphertext_expansion_is_configurable(self, tiny_dataset):
        small = FedMF(tiny_dataset, _config("fedmf"), ciphertext_bytes=8)
        large = FedMF(tiny_dataset, _config("fedmf"), ciphertext_bytes=128)
        small.run_round(0)
        large.run_round(0)
        ratio = (
            large.ledger.average_client_round_bytes()
            / small.ledger.average_client_round_bytes()
        )
        assert ratio == pytest.approx(16.0)

    def test_fedmf_rejects_sub_plaintext_ciphertexts(self, tiny_dataset):
        with pytest.raises(ValueError):
            FedMF(tiny_dataset, _config("fedmf"), ciphertext_bytes=2)

    def test_metamf_cost_close_to_but_above_item_table(self, tiny_dataset):
        fcf = FCF(tiny_dataset, _config())
        metamf = MetaMF(tiny_dataset, _config("metamf"))
        fcf.run_round(0)
        metamf.run_round(0)
        assert (
            metamf.ledger.average_client_round_bytes()
            > 0.8 * fcf.ledger.average_client_round_bytes()
        )

    def test_costs_grow_with_item_count(self, tiny_dataset, small_dataset):
        smaller = FCF(tiny_dataset, _config())
        larger = FCF(small_dataset, _config())
        smaller.run_round(0)
        larger.run_round(0)
        assert (
            larger.ledger.average_client_round_bytes()
            > smaller.ledger.average_client_round_bytes()
        )


class TestMetaMFModel:
    def test_scores_are_probabilities(self, rng):
        model = MetaMFModel(4, 9, embedding_dim=6, rng=rng)
        scores = model.score(np.array([0, 1]), np.array([3, 8])).numpy()
        assert np.all((scores > 0) & (scores < 1))

    def test_meta_network_is_used(self, rng):
        model = MetaMFModel(4, 9, embedding_dim=6, rng=rng)
        items = np.array([0, 5])
        generated = model.generate_item_embedding(items).numpy()
        base = model.item_base_embedding.weight.data[items]
        assert not np.allclose(generated, base)

    def test_metamf_public_parameters_exclude_user_table(self, tiny_dataset):
        system = MetaMF(tiny_dataset, _config("metamf"))
        public_names = set(system._public_parameter_names())
        assert "user_embedding.weight" not in public_names
        model_names = {name for name, _ in system.model.named_parameters()}
        assert public_names <= model_names
