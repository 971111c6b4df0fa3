"""Unit tests for the PTF-FedRec client and server components."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClientUpload, PTFClient, PTFServer
from repro.experiments import ExperimentSpec
from repro.utils import RngFactory

NUM_ITEMS = 40


def _config(**overrides):
    defaults = dict(
        rounds=2,
        client_local_epochs=1,
        server_epochs=1,
        embedding_dim=8,
        client_mlp_layers=(16, 8),
        server_num_layers=2,
        alpha=10,
        server_model="ngcf",
    )
    defaults.update(overrides)
    return ExperimentSpec.from_flat(trainer="ptf", **defaults)


def _client(config=None, positives=(1, 2, 3, 4, 5), user_id=0, seed=0):
    config = config if config is not None else _config()
    return PTFClient(
        user_id=user_id,
        num_items=NUM_ITEMS,
        positive_items=np.array(positives),
        config=config,
        rngs=RngFactory(seed),
    )


class TestPTFConfig:
    """The PTF trainer's configuration: an ``ExperimentSpec(trainer="ptf")``."""

    def test_defaults_match_paper(self):
        spec = ExperimentSpec(trainer="ptf")
        assert spec.dispersal.alpha == 30
        assert spec.privacy.beta_range == (0.1, 1.0)
        assert spec.privacy.gamma_range == (1.0, 4.0)
        assert spec.privacy.swap_rate == 0.1
        assert spec.dispersal.mu == 0.5
        assert spec.protocol.rounds == 20
        assert spec.protocol.client_local_epochs == 5
        assert spec.protocol.server_epochs == 2
        assert spec.protocol.learning_rate == 0.001
        assert spec.protocol.negative_ratio == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"defense": "quantum"},
            {"dispersal_mode": "telepathy"},
            {"rounds": 0},
            {"client_fraction": 0.0},
            {"alpha": -1},
            {"mu": 1.5},
            {"swap_rate": -0.1},
            {"beta_range": (0.0, 1.0)},
            {"gamma_range": (2.0, 1.0)},
            {"negative_ratio": 0},
            {"ldp_scale": -1.0},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec.from_flat(trainer="ptf", **kwargs)


class TestPTFClient:
    def test_local_training_reduces_loss(self):
        config = _config(client_local_epochs=3)
        client = _client(config)
        first = client.local_train(round_index=0)
        for round_index in range(1, 6):
            last = client.local_train(round_index)
        assert last < first

    def test_client_without_data_is_a_noop(self):
        client = _client(positives=())
        assert client.local_train(0) == 0.0

    def test_upload_items_are_unique_and_in_range(self):
        client = _client()
        client.local_train(0)
        upload = client.build_upload(0)
        assert upload.num_records > 0
        assert len(set(upload.items.tolist())) == upload.num_records
        assert np.all((upload.items >= 0) & (upload.items < NUM_ITEMS))
        assert np.all((upload.scores >= 0.0) & (upload.scores <= 1.0))

    def test_upload_ground_truth_is_the_full_positive_set(self):
        # The attack is graded against the client's full interaction set
        # (not just the uploaded positives), matching the paper's threat model.
        client = _client()
        upload = client.build_upload(0)
        assert set(upload.true_positive_items.tolist()) == {1, 2, 3, 4, 5}

    def test_defense_none_uploads_whole_trained_pool(self):
        config = _config(defense="none")
        client = _client(config)
        upload = client.build_upload(0)
        # All five positives must be present in the payload under "no defense".
        assert {1, 2, 3, 4, 5} <= set(upload.items.tolist())
        assert upload.num_records > 5

    def test_sampling_defense_usually_uploads_fewer_positives(self):
        full_sizes = []
        sampled_sizes = []
        for seed in range(8):
            full = _client(_config(defense="none"), seed=seed).build_upload(0)
            sampled = _client(_config(defense="sampling"), seed=seed).build_upload(0)
            positives = {1, 2, 3, 4, 5}
            full_sizes.append(len(positives & set(full.items.tolist())))
            sampled_sizes.append(len(positives & set(sampled.items.tolist())))
        assert np.mean(sampled_sizes) < np.mean(full_sizes)

    def test_upload_is_deterministic_per_seed(self):
        first = _client(seed=3).build_upload(1)
        second = _client(seed=3).build_upload(1)
        np.testing.assert_array_equal(first.items, second.items)
        np.testing.assert_allclose(first.scores, second.scores)

    def test_receive_dispersal_feeds_next_training_round(self):
        client = _client()
        client.receive_dispersal(np.array([20, 21]), np.array([0.8, 0.2]))
        np.testing.assert_array_equal(client.server_items, [20, 21])
        # Training with the extra soft labels must still work.
        loss = client.local_train(0)
        assert np.isfinite(loss)

    def test_receive_dispersal_validates_lengths(self):
        client = _client()
        with pytest.raises(ValueError):
            client.receive_dispersal(np.array([1, 2]), np.array([0.5]))


class TestPTFServer:
    def _uploads(self, num_clients=5, records_per_client=8, seed=0):
        rng = np.random.default_rng(seed)
        uploads = []
        for user in range(num_clients):
            items = rng.choice(NUM_ITEMS, size=records_per_client, replace=False)
            scores = rng.uniform(0, 1, size=records_per_client)
            positives = items[scores > 0.5]
            uploads.append(ClientUpload(user, items, scores, positives))
        return uploads

    def _server(self, **overrides):
        config = _config(**overrides)
        return PTFServer(num_users=5, num_items=NUM_ITEMS, config=config, rngs=RngFactory(1))

    def test_training_on_uploads_returns_finite_loss(self):
        server = self._server()
        loss = server.train_on_uploads(self._uploads(), round_index=0)
        assert np.isfinite(loss)
        assert len(server.loss_history) == 1

    def test_training_with_no_uploads_is_noop(self):
        server = self._server()
        assert server.train_on_uploads([], round_index=0) == 0.0

    def test_graph_server_builds_surrogate_graph(self):
        server = self._server(server_model="lightgcn")
        server.train_on_uploads(self._uploads(), round_index=0)
        assert server.model.adjacency.nnz > 0

    def test_neumf_server_does_not_need_graph(self):
        server = self._server(server_model="neumf")
        loss = server.train_on_uploads(self._uploads(), round_index=0)
        assert np.isfinite(loss)

    def test_dispersal_size_and_exclusion(self):
        server = self._server(alpha=12)
        uploads = self._uploads()
        server.train_on_uploads(uploads, round_index=0)
        dispersal = server.build_dispersal(uploads[0], round_index=0)
        assert 0 < dispersal.num_records <= 12
        assert not set(dispersal.items.tolist()) & set(uploads[0].items.tolist())
        assert np.all((dispersal.scores >= 0.0) & (dispersal.scores <= 1.0))

    def test_dispersal_alpha_zero_gives_empty_dataset(self):
        server = self._server(alpha=0)
        dispersal = server.build_dispersal(self._uploads()[0], round_index=0)
        assert dispersal.num_records == 0

    def test_dispersal_respects_mu_split(self):
        # With mu=1.0 every dispersed item comes from the confidence branch,
        # i.e. the most frequently updated items not uploaded by the client.
        server = self._server(alpha=6, mu=1.0)
        uploads = self._uploads()
        server.train_on_uploads(uploads, round_index=0)
        dispersal = server.build_dispersal(uploads[0], round_index=0)
        counts = server.model.item_update_counts()
        candidate_counts = counts.copy()
        candidate_counts[uploads[0].items] = -1
        top_candidates = set(np.argsort(-candidate_counts)[:6].tolist())
        overlap = len(set(dispersal.items.tolist()) & top_candidates)
        assert overlap >= dispersal.num_records - 2  # ties may shuffle the tail

    @pytest.mark.parametrize(
        "mode", ["confidence+hard", "confidence+random", "random+hard", "random"]
    )
    def test_all_dispersal_modes_produce_valid_datasets(self, mode):
        server = self._server(dispersal_mode=mode, alpha=8)
        uploads = self._uploads()
        server.train_on_uploads(uploads, round_index=0)
        dispersal = server.build_dispersal(uploads[1], round_index=0)
        assert dispersal.num_records > 0
        assert not set(dispersal.items.tolist()) & set(uploads[1].items.tolist())

    def test_predict_for_user_shape(self):
        server = self._server()
        scores = server.predict_for_user(2, np.arange(10))
        assert scores.shape == (10,)
