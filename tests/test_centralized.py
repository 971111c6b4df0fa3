"""Tests for the centralized training baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.centralized import CentralizedTrainer
from repro.experiments import ExperimentSpec
from repro.models import LightGCN, MatrixFactorization, NGCF, NeuMF
from repro.utils import RngFactory


def _config(seed=0, **overrides):
    defaults = dict(rounds=4, server_batch_size=256, learning_rate=0.01)
    defaults.update(overrides)
    return ExperimentSpec.from_flat(trainer="centralized", seed=seed, **defaults)


class TestCentralizedConfig:
    """The trainer's settings come from its ExperimentSpec's protocol section."""

    @pytest.mark.parametrize(
        "kwargs", [{"rounds": 0}, {"server_batch_size": 0}, {"negative_ratio": 0}]
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _config(**kwargs)

    def test_spec_naming_another_trainer_rejected(self, tiny_dataset, rngs):
        model = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                    embedding_dim=8, rng=rngs.spawn("m"))
        with pytest.raises(ValueError, match="trainer"):
            CentralizedTrainer(model, tiny_dataset, ExperimentSpec(trainer="ptf"))


class TestCentralizedTrainer:
    def test_loss_decreases(self, tiny_dataset, rngs):
        model = NeuMF(tiny_dataset.num_users, tiny_dataset.num_items,
                      embedding_dim=8, mlp_layers=(16, 8), rng=rngs.spawn("m"))
        trainer = CentralizedTrainer(model, tiny_dataset, _config(rounds=5))
        trainer.fit()
        assert trainer.loss_history[-1] < trainer.loss_history[0]

    def test_graph_model_receives_training_graph(self, tiny_dataset, rngs):
        model = LightGCN(tiny_dataset.num_users, tiny_dataset.num_items,
                         embedding_dim=8, num_layers=2, rng=rngs.spawn("g"))
        CentralizedTrainer(model, tiny_dataset, _config(rounds=1))
        assert model.adjacency.nnz == 2 * tiny_dataset.num_train_interactions

    def test_training_beats_untrained_model(self, tiny_dataset, rngs):
        untrained = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                        embedding_dim=8, rng=RngFactory(5).spawn("u"))
        trained = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                      embedding_dim=8, rng=RngFactory(5).spawn("u"))
        trainer = CentralizedTrainer(trained, tiny_dataset, _config(rounds=8))
        trainer.fit()
        from repro.eval import RankingEvaluator

        evaluator = RankingEvaluator(tiny_dataset, k=10)
        assert evaluator.evaluate(trained).ndcg >= evaluator.evaluate(untrained).ndcg

    def test_fit_explicit_epoch_override(self, tiny_dataset, rngs):
        model = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                    embedding_dim=8, rng=rngs.spawn("m2"))
        trainer = CentralizedTrainer(model, tiny_dataset, _config(rounds=10))
        trainer.fit(rounds=2)
        assert len(trainer.loss_history) == 2
        assert trainer.rounds_completed == 2

    def test_evaluate_returns_result(self, tiny_dataset, rngs):
        model = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                    embedding_dim=8, rng=rngs.spawn("m3"))
        trainer = CentralizedTrainer(model, tiny_dataset, _config(rounds=1))
        trainer.fit()
        result = trainer.evaluate(k=10, max_users=5)
        assert result.num_users_evaluated <= 5
        assert 0.0 <= result.ndcg <= 1.0

    def test_deterministic_given_seed(self, tiny_dataset):
        def run():
            model = MatrixFactorization(tiny_dataset.num_users, tiny_dataset.num_items,
                                        embedding_dim=8, rng=RngFactory(9).spawn("model"))
            trainer = CentralizedTrainer(model, tiny_dataset, _config(rounds=2, seed=9))
            trainer.fit()
            return trainer.loss_history

        assert run() == run()

    @pytest.mark.parametrize("model_class", [NeuMF, NGCF, LightGCN])
    def test_all_paper_models_train(self, tiny_dataset, rngs, model_class):
        kwargs = {"embedding_dim": 8}
        if model_class is NeuMF:
            kwargs["mlp_layers"] = (16, 8)
        else:
            kwargs["num_layers"] = 2
        model = model_class(tiny_dataset.num_users, tiny_dataset.num_items,
                            rng=rngs.spawn(model_class.__name__), **kwargs)
        trainer = CentralizedTrainer(model, tiny_dataset, _config(rounds=2))
        trainer.fit()
        assert np.isfinite(trainer.loss_history).all()
