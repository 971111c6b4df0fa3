"""Tests for the unified experiment API (spec, registry, callbacks, run)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PTFFedRec, ensure_spec
from repro.experiments import (
    Callback,
    EarlyStopping,
    EvalEveryK,
    ExperimentSpec,
    ProgressLogger,
    available_trainers,
    get_trainer,
    register_trainer,
    run,
)

ALL_TRAINERS = ("centralized", "fcf", "fedmf", "metamf", "ptf")


def tiny_spec(trainer: str = "ptf", **overrides) -> ExperimentSpec:
    """A spec small enough for sub-second end-to-end runs."""
    defaults = dict(
        rounds=2,
        client_local_epochs=1,
        server_epochs=1,
        client_batch_size=32,
        server_batch_size=64,
        learning_rate=0.01,
        embedding_dim=8,
        client_mlp_layers=(16, 8),
        server_num_layers=2,
        alpha=8,
        k=10,
        max_users=8,
    )
    defaults.update(overrides)
    return ExperimentSpec.from_flat(trainer=trainer, seed=11, **defaults)


@pytest.fixture
def micro_dataset(rngs):
    from repro.data import debug_dataset

    return debug_dataset(rngs.spawn("micro"), num_users=12, num_items=30,
                         num_interactions=220)


# ----------------------------------------------------------------------
# Spec construction, round-trips and validation
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_dict_round_trip_per_trainer(self, trainer):
        spec = tiny_spec(trainer)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_json_round_trip_per_trainer(self, trainer):
        spec = tiny_spec(trainer)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_non_defaults(self):
        spec = tiny_spec(
            "ptf",
            defense="ldp",
            ldp_scale=0.7,
            beta_range=(0.2, 0.9),
            dispersal_mode="random",
            mu=0.3,
            client_fraction=0.5,
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.privacy.defense == "ldp"
        assert restored.privacy.beta_range == (0.2, 0.9)
        assert restored.dispersal.mode == "random"
        assert restored.protocol.client_fraction == 0.5
        assert restored == spec

    def test_sections_accept_mappings(self):
        spec = ExperimentSpec(trainer="ptf", model={"embedding_dim": 4},
                              protocol={"rounds": 3})
        assert spec.model.embedding_dim == 4
        assert spec.protocol.rounds == 3
        # untouched sections keep their defaults
        assert spec.dispersal.alpha == 30

    def test_replace_returns_modified_copy(self):
        spec = tiny_spec("ptf")
        swept = spec.replace(alpha=50, trainer="fcf")
        assert swept.dispersal.alpha == 50
        assert swept.trainer == "fcf"
        assert spec.dispersal.alpha == 8  # original untouched

    def test_tuples_survive_list_input(self):
        spec = ExperimentSpec(trainer="ptf", model={"client_mlp_layers": [16, 8]})
        assert spec.model.client_mlp_layers == (16, 8)


class TestSpecValidation:
    def test_unknown_trainer_rejected(self):
        with pytest.raises(ValueError, match="unknown trainer"):
            ExperimentSpec(trainer="telepathy")

    def test_unknown_top_level_field_rejected(self):
        data = tiny_spec("ptf").to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown ExperimentSpec fields"):
            ExperimentSpec.from_dict(data)

    def test_unknown_section_field_rejected(self):
        data = tiny_spec("ptf").to_dict()
        data["privacy"]["surprise"] = 1
        with pytest.raises(ValueError, match="unknown PrivacySpec fields"):
            ExperimentSpec.from_dict(data)

    def test_unknown_flat_field_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment field"):
            ExperimentSpec.from_flat(trainer="ptf", warp_speed=9)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rounds": 0},
            {"client_fraction": 0.0},
            {"negative_ratio": 0},
            {"learning_rate": 0.0},
            {"defense": "quantum"},
            {"beta_range": (0.0, 1.0)},
            {"gamma_range": (2.0, 1.0)},
            {"swap_rate": -0.1},
            {"ldp_scale": -1.0},
            {"audit_guess_ratio": 0.0},
            {"alpha": -1},
            {"mu": 1.5},
            {"dispersal_mode": "telepathy"},
            {"client_local_epochs": -1},
            {"server_epochs": -1},
            {"embedding_dim": 0},
            {"k": 0},
            {"max_users": 0},
            {"every": -1},
        ],
    )
    def test_invalid_section_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ExperimentSpec.from_flat(trainer="ptf", **overrides)


# ----------------------------------------------------------------------
# What the retired PTFConfig shim guaranteed, now pinned on ExperimentSpec
# ----------------------------------------------------------------------
class TestPTFConfigShim:
    def test_invalid_values_still_raise_value_error(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_flat(trainer="ptf", dispersal_mode="telepathy")

    def test_zero_epoch_ablations_still_accepted(self, micro_dataset):
        # An ablation may skip a training leg entirely; the spec must
        # accept it — the loop just runs zero times.
        spec = ExperimentSpec.from_flat(
            trainer="ptf", rounds=1, client_local_epochs=1, server_epochs=0,
            embedding_dim=8, client_mlp_layers=(16, 8), server_num_layers=2, alpha=5,
        )
        system = PTFFedRec(micro_dataset, spec).fit()
        assert system.round_summaries[0].server_loss == 0.0

    def test_ensure_spec_rejects_other_types(self):
        with pytest.raises(TypeError):
            ensure_spec({"rounds": 3})

    def test_ensure_spec_none_gives_paper_defaults(self):
        spec = ensure_spec(None)
        assert spec.trainer == "ptf"
        assert spec.dispersal.alpha == 30
        assert spec.protocol.rounds == 20


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_paper_trainers_registered(self):
        assert set(ALL_TRAINERS) <= set(available_trainers())

    def test_unknown_trainer_lookup_raises(self):
        with pytest.raises(KeyError, match="registered trainers"):
            get_trainer("telepathy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_trainer("ptf")(object)

    def test_replace_allows_override_and_restore(self):
        original = get_trainer("ptf")
        sentinel = object()
        register_trainer("ptf", replace=True)(sentinel)
        try:
            assert get_trainer("ptf") is sentinel
        finally:
            register_trainer("ptf", replace=True)(original)


# ----------------------------------------------------------------------
# repro.run: one entry point for every paradigm
# ----------------------------------------------------------------------
class TestRun:
    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_run_executes_every_trainer_with_uniform_schema(self, trainer, micro_dataset):
        result = run(tiny_spec(trainer), micro_dataset)
        assert result.trainer == trainer
        assert result.rounds_completed == 2
        assert len(result.history) == 2
        assert all(np.isfinite(list(record.metrics.values())).all()
                   for record in result.history)
        assert 0.0 <= result.final.recall <= 1.0
        assert result.final.k == 10
        data = result.to_dict()
        assert set(data) == {
            "trainer", "spec", "rounds_completed", "history", "final",
            "communication", "privacy", "duration_seconds",
        }
        assert data["spec"] == tiny_spec(trainer).to_dict()

    def test_run_accepts_plain_dict_spec(self, micro_dataset):
        result = run(tiny_spec("fcf").to_dict(), micro_dataset)
        assert result.trainer == "fcf"

    def test_run_without_dataset_uses_synthetic_default(self):
        result = run(tiny_spec("centralized"))
        assert result.rounds_completed == 2
        assert result.final.num_users_evaluated > 0

    def test_only_federated_trainers_move_bytes(self, micro_dataset):
        central = run(tiny_spec("centralized"), micro_dataset)
        fcf = run(tiny_spec("fcf"), micro_dataset)
        ptf = run(tiny_spec("ptf"), micro_dataset)
        assert central.communication.total_bytes == 0
        assert fcf.communication.total_bytes > 0
        assert ptf.communication.total_bytes > 0
        # Headline claim: PTF moves far fewer bytes than FCF.
        assert fcf.communication.total_bytes > 5 * ptf.communication.total_bytes

    def test_privacy_report_only_for_ptf(self, micro_dataset):
        assert run(tiny_spec("ptf"), micro_dataset).privacy is not None
        assert run(tiny_spec("fcf"), micro_dataset).privacy is None
        assert run(tiny_spec("centralized"), micro_dataset).privacy is None

    def test_audit_can_be_disabled(self, micro_dataset):
        result = run(tiny_spec("ptf", audit_privacy=False), micro_dataset)
        assert result.privacy is None

    def test_eval_every_round_lands_in_history(self, micro_dataset):
        result = run(tiny_spec("ptf", every=1), micro_dataset)
        ndcg_series = result.metric_series("ndcg")
        assert len(ndcg_series) == result.rounds_completed
        assert all(0.0 <= value <= 1.0 for value in ndcg_series)

    def test_final_reuses_last_in_training_eval(self, micro_dataset):
        # With every=1 the last round's EvalEveryK result IS the final one;
        # the runner must not pay for a second full-ranking pass.
        result = run(tiny_spec("ptf", every=1), micro_dataset)
        assert result.final.ndcg == result.metric_series("ndcg")[-1]
        assert result.final.recall == result.metric_series("recall")[-1]

    def test_run_is_deterministic_given_seed(self, micro_dataset):
        first = run(tiny_spec("ptf"), micro_dataset)
        second = run(tiny_spec("ptf"), micro_dataset)
        assert first.final == second.final
        assert [r.metrics for r in first.history] == [r.metrics for r in second.history]


# ----------------------------------------------------------------------
# Callbacks
# ----------------------------------------------------------------------
class TestCallbacks:
    def test_hooks_fire_in_order(self, micro_dataset):
        events = []

        class Recorder(Callback):
            def on_fit_start(self, trainer):
                events.append("fit_start")

            def on_round_start(self, trainer, round_index):
                events.append(f"start{round_index}")

            def on_round_end(self, trainer, round_index, logs):
                events.append(f"end{round_index}")

            def on_fit_end(self, trainer):
                events.append("fit_end")

        run(tiny_spec("ptf"), micro_dataset, callbacks=[Recorder()])
        assert events == ["fit_start", "start0", "end0", "start1", "end1", "fit_end"]

    @pytest.mark.parametrize("trainer", ALL_TRAINERS)
    def test_early_stopping_wired_into_every_trainer(self, trainer, micro_dataset):
        class StopImmediately(Callback):
            def on_round_end(self, trainer, round_index, logs):
                self.stop_training = True

        result = run(tiny_spec(trainer, rounds=5), micro_dataset,
                     callbacks=[StopImmediately()])
        assert result.rounds_completed == 1

    def test_early_stopping_on_ndcg_plateau(self, micro_dataset):
        stopper = EarlyStopping(metric="ndcg", patience=1)
        result = run(tiny_spec("ptf", rounds=6, every=1), micro_dataset,
                     callbacks=[stopper])
        if stopper.stopped_round is not None:
            assert result.rounds_completed == stopper.stopped_round + 1
            assert result.rounds_completed < 6

    def test_early_stopping_ignores_rounds_without_metric(self):
        stopper = EarlyStopping(metric="ndcg", patience=2)
        stopper.on_fit_start(None)
        stopper.on_round_end(None, 0, {"loss": 1.0})  # no ndcg -> ignored
        stopper.on_round_end(None, 1, {"ndcg": 0.5})
        stopper.on_round_end(None, 2, {"ndcg": 0.4})
        stopper.on_round_end(None, 3, {"ndcg": 0.4})
        assert stopper.stop_training

    def test_eval_every_k_cadence(self, micro_dataset):
        evaluator = EvalEveryK(every=2, k=5, max_users=5)
        run(tiny_spec("centralized", rounds=4), micro_dataset, callbacks=[evaluator])
        assert [index for index, _ in evaluator.history] == [1, 3]

    def test_progress_logger_writes_lines(self, micro_dataset):
        lines = []
        run(tiny_spec("fcf"), micro_dataset,
            callbacks=[ProgressLogger(print_fn=lines.append)])
        assert sum("round" in line for line in lines) == 2

    def test_legacy_fit_paths_accept_callbacks(self, micro_dataset):
        # The hooks are wired into the trainers themselves, not only run().
        seen = []

        class Ticker(Callback):
            def on_round_end(self, trainer, round_index, logs):
                seen.append(round_index)

        PTFFedRec(micro_dataset, tiny_spec("ptf")).fit(rounds=1, callbacks=[Ticker()])
        assert seen == [0]


# ----------------------------------------------------------------------
# Vectorized dispersal (perf refactor regression test)
# ----------------------------------------------------------------------
class TestDispersalVectorization:
    def test_candidates_match_list_comprehension_reference(self, micro_dataset):
        from repro.core.client import ClientUpload
        from repro.core.server import PTFServer
        from repro.utils import RngFactory

        spec = tiny_spec("ptf", alpha=10)
        server = PTFServer(micro_dataset.num_users, micro_dataset.num_items,
                           spec, RngFactory(3))
        rng = np.random.default_rng(0)
        items = rng.choice(micro_dataset.num_items, size=9, replace=False)
        scores = rng.uniform(0, 1, size=9)
        upload = ClientUpload(0, items, scores, items[scores > 0.5])
        server.train_on_uploads([upload], round_index=0)
        dispersal = server.build_dispersal(upload, round_index=0)

        excluded = set(int(item) for item in upload.items)
        reference = [i for i in range(micro_dataset.num_items) if i not in excluded]
        assert set(dispersal.items.tolist()) <= set(reference)
        assert 0 < dispersal.num_records <= 10
