"""Tests for repro.scenario: fault injection, telemetry and bit-identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.experiments.registry import available_trainers, get_trainer
from repro.experiments.result import RoundRecord, RunResult
from repro.experiments.spec import ExperimentSpec
from repro.scenario import (
    PARTICIPATION_KEYS,
    ParticipationSummary,
    RoundParticipation,
    RoundPlan,
    ScenarioEngine,
    ScenarioSpec,
)
from repro.utils.rng import RngFactory

SCHEDULERS = ("serial", "batched")

CHURN = {"dropout": 0.3}
STRAGGLER_SYNC = {"deadline": 1.0, "latency_range": (0.5, 1.5)}
STRAGGLER_ASYNC = {
    "deadline": 1.0,
    "latency_range": (0.5, 2.5),
    "aggregation": "async",
    "max_staleness": 2,
}
ARRIVALS = {
    "user_arrival_fraction": 0.3,
    "user_arrival_rounds": 2,
    "item_arrival_fraction": 0.2,
    "item_arrival_rounds": 2,
}
EVERYTHING = {**CHURN, **STRAGGLER_ASYNC, **ARRIVALS}

FAULT_SPECS = {
    "churn": CHURN,
    "straggler-sync": STRAGGLER_SYNC,
    "straggler-async": STRAGGLER_ASYNC,
    "arrivals": ARRIVALS,
    "everything": EVERYTHING,
}


def _spec(trainer, scenario=None, scheduler="serial", rounds=2, **overrides):
    return ExperimentSpec(
        trainer=trainer,
        protocol={"rounds": rounds, "client_local_epochs": 1, "server_epochs": 1},
        evaluation={"max_users": 6},
        engine={"scheduler": scheduler},
        scenario=scenario or {},
        **overrides,
    )


def _run_fingerprint(result: RunResult):
    return (
        [record.to_dict() for record in result.history],
        result.final,
        result.communication,
        result.participation,
    )


def _serving_parameters(spec, dataset):
    adapter = get_trainer(spec.trainer)(spec, dataset)
    adapter.fit()
    return {
        name: parameter.data.copy()
        for name, parameter in adapter.serving_model().named_parameters()
    }


# ----------------------------------------------------------------------
# ScenarioSpec / ScenarioEngine units
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def test_default_is_disabled(self):
        assert not ScenarioSpec().enabled

    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    def test_fault_specs_are_enabled(self, fault):
        assert ScenarioSpec(**FAULT_SPECS[fault]).enabled

    def test_staleness_weight(self):
        spec = ScenarioSpec(staleness_alpha=0.5)
        assert spec.staleness_weight(0) == 1.0
        assert spec.staleness_weight(1) == pytest.approx(0.25)
        assert spec.staleness_weight(3) == pytest.approx(0.125)

    @pytest.mark.parametrize("bad", [
        {"dropout": 1.5},
        {"latency_range": (2.0, 1.0)},
        {"deadline": -1.0},
        {"aggregation": "eventual"},
        {"staleness_alpha": 0.0},
        {"max_staleness": -1},
        {"user_arrival_fraction": 1.0},
        {"item_arrival_rounds": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ScenarioSpec(**bad)

    def test_spec_section_roundtrip(self):
        spec = ExperimentSpec(trainer="ptf", scenario=EVERYTHING)
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.scenario.asynchronous


class TestScenarioEngine:
    def _engine(self, scenario, seed=0):
        return ScenarioEngine(
            ScenarioSpec(**scenario), RngFactory(seed), users=range(40), num_items=60
        )

    def test_plan_partitions_cohort(self):
        engine = self._engine(EVERYTHING)
        for round_index in range(5):
            plan = engine.plan_round(list(range(40)), round_index)
            partition = (
                sorted(plan.on_time) + sorted(plan.dropped)
                + sorted(plan.lost) + sorted(plan.stale)
            )
            assert sorted(partition) == sorted(plan.selected)
            assert sorted(plan.selected + plan.pending) == list(range(40))
            assert set(plan.trained) == set(plan.selected) - set(plan.dropped)

    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    def test_events_deterministic(self, fault):
        plans_a = [self._engine(FAULT_SPECS[fault]).plan_round(range(40), r)
                   for r in range(4)]
        plans_b = [self._engine(FAULT_SPECS[fault]).plan_round(range(40), r)
                   for r in range(4)]
        assert plans_a == plans_b

    def test_events_depend_on_seed(self):
        a = self._engine(EVERYTHING, seed=0).plan_round(range(40), 0)
        b = self._engine(EVERYTHING, seed=1).plan_round(range(40), 0)
        assert a != b

    def test_events_independent_of_cohort_order(self):
        engine = self._engine(CHURN)
        forward = engine.plan_round(list(range(40)), 2)
        backward = engine.plan_round(list(reversed(range(40))), 2)
        assert set(forward.dropped) == set(backward.dropped)

    def test_sync_mode_never_buffers(self):
        engine = self._engine(STRAGGLER_SYNC)
        for round_index in range(5):
            plan = engine.plan_round(range(40), round_index)
            assert plan.stale == {}

    def test_async_staleness_bounded(self):
        engine = self._engine(STRAGGLER_ASYNC)
        staleness = [s for r in range(5)
                     for s in engine.plan_round(range(40), r).stale.values()]
        assert staleness, "expected some buffered stragglers"
        assert all(1 <= s <= 2 for s in staleness)

    def test_arrivals_monotonic(self):
        engine = self._engine(ARRIVALS)
        sizes = [len(engine.arrived_user_set(r)) for r in range(-1, 4)]
        assert sizes == sorted(sizes)
        assert sizes[0] < 40 and sizes[-1] == 40
        masks = [engine.arrived_item_mask(r) for r in range(-1, 4)]
        counts = [int(mask.sum()) for mask in masks]
        assert counts == sorted(counts)
        assert counts[0] < 60 and counts[-1] == 60

    def test_item_mask_none_when_disabled(self):
        assert self._engine(CHURN).arrived_item_mask(0) is None


def _per_client_plan(engine, rngs, selected, round_index):
    """Oracle: the per-client ``spawn_indexed`` loop ``plan_round`` replaced."""
    spec = engine.spec
    arrived = [int(u) for u in selected if engine.user_arrival_round(u) <= round_index]
    pending = [int(u) for u in selected if engine.user_arrival_round(u) > round_index]
    on_time, dropped, lost, stale = [], [], [], {}
    for user in arrived:
        key = user * 1_000_003 + round_index
        if spec.dropout > 0.0:
            if rngs.spawn_indexed("scenario-dropout", key).random() < spec.dropout:
                dropped.append(user)
                continue
        staleness = 0
        if spec.deadline > 0.0:
            latency = rngs.spawn_indexed("scenario-latency", key).uniform(*spec.latency_range)
            if latency > spec.deadline:
                staleness = int(math.ceil(latency / spec.deadline)) - 1
        if staleness == 0:
            on_time.append(user)
        elif spec.asynchronous and staleness <= spec.max_staleness:
            stale[user] = staleness
        else:
            lost.append(user)
    return RoundPlan(
        round_index=round_index, selected=tuple(arrived), pending=tuple(pending),
        on_time=tuple(on_time), dropped=tuple(dropped), lost=tuple(lost), stale=stale,
    )


class TestVectorisedPlanning:
    """``plan_round`` draws a cohort in one vectorised pass per stream; it
    must equal the per-client stream loop event for event, including for
    user ids from 4295 on, whose keys ``user * 1_000_003 + round`` are
    wider than 32 bits."""

    USERS = list(range(4200, 4400)) + [70_000, 2_000_000]

    @pytest.mark.parametrize("seed", [0, 2024])
    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    def test_plan_round_equals_per_client_oracle(self, fault, seed):
        rngs = RngFactory(seed)
        engine = ScenarioEngine(
            ScenarioSpec(**FAULT_SPECS[fault]), rngs, users=self.USERS, num_items=60
        )
        cohort = self.USERS[::-1][:150] + self.USERS[:50]
        for round_index in range(4):
            plan = engine.plan_round(cohort, round_index)
            assert plan == _per_client_plan(engine, rngs, cohort, round_index)
            assert list(plan.stale) == [u for u in plan.selected if u in plan.stale]

    def test_empty_cohort(self):
        engine = ScenarioEngine(ScenarioSpec(**EVERYTHING), RngFactory(0),
                                users=range(10), num_items=5)
        plan = engine.plan_round([], 1)
        assert plan == RoundPlan(1, (), (), (), (), (), {})

    def test_disabled_spec_makes_no_draw(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a disabled scenario drew from a stream")

        monkeypatch.setattr(RngFactory, "random_indexed", forbidden)
        monkeypatch.setattr(RngFactory, "spawn_indexed", forbidden)
        engine = ScenarioEngine(None, RngFactory(0), users=range(20), num_items=5)
        plan = engine.plan_round(range(20), 3)
        assert plan.on_time == plan.selected == tuple(range(20))


# ----------------------------------------------------------------------
# Satellite: RoundRecord reserved-key regression
# ----------------------------------------------------------------------
class TestRoundRecordReservedKey:
    def test_round_metric_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            RoundRecord(3, {"round": 1.0})

    def test_roundtrip_still_lossless(self):
        record = RoundRecord(7, {"loss": 0.25, "hit": 0.5})
        assert RoundRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestParticipationTelemetry:
    def test_round_participation_log_roundtrip(self):
        participation = RoundParticipation(
            selected=10, completed=6, dropped=2, straggled=3, stale_applied=1
        )
        assert RoundParticipation.from_logs(participation.as_logs()) == participation

    def test_summary_from_history_skips_plain_rounds(self):
        records = [
            RoundRecord(0, {"client_loss": 0.5}),
            RoundRecord(1, {"client_loss": 0.4, "selected": 10, "completed": 8,
                            "dropped": 2, "straggled": 0, "stale_applied": 0}),
            RoundRecord(2, {"client_loss": 0.3, "selected": 10, "completed": 7,
                            "dropped": 1, "straggled": 2, "stale_applied": 1}),
        ]
        summary = ParticipationSummary.from_history(records)
        assert summary.rounds == 2
        assert summary.selected == 20
        assert summary.completed == 15
        assert summary.completion_rate == pytest.approx(0.75)
        assert ParticipationSummary.from_dict(summary.to_dict()) == summary


# ----------------------------------------------------------------------
# Tentpole acceptance: scenario-off bit-identity sweep
# ----------------------------------------------------------------------
class TestScenarioOffBitIdentity:
    @pytest.mark.parametrize("trainer", sorted(available_trainers()))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_default_scenario_matches_reference(self, tiny_dataset, trainer, scheduler):
        """Default ScenarioSpec == reference behavior, for every trainer/scheduler.

        The serial run carries no scenario knobs at all; the compared run
        carries an explicit (default) scenario section under each
        scheduler.  History, final metrics and served parameters must all
        compare equal, and no participation counts may appear.  Both runs
        take the drivers' single round body, so this checks scenario
        plumbing, not a reference; ``tests/test_golden_runs.py`` pins the
        scenario-off output itself to recorded digests.
        """
        reference_spec = _spec(trainer, scheduler="serial")
        spec = _spec(trainer, scenario={}, scheduler=scheduler)
        reference = repro.run(reference_spec, tiny_dataset)
        result = repro.run(spec, tiny_dataset)
        assert [r.to_dict() for r in result.history] == [
            r.to_dict() for r in reference.history
        ]
        assert result.final == reference.final
        assert result.communication == reference.communication
        assert result.participation is None
        for record in result.history:
            assert not any(key in record.metrics for key in PARTICIPATION_KEYS)
        ours = _serving_parameters(spec, tiny_dataset)
        theirs = _serving_parameters(reference_spec, tiny_dataset)
        assert set(ours) == set(theirs)
        for name in ours:
            np.testing.assert_array_equal(ours[name], theirs[name])


# ----------------------------------------------------------------------
# Tentpole acceptance: fault determinism and scheduler invariance
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    @pytest.mark.parametrize("trainer", ["ptf", "fedmf"])
    def test_fixed_seed_reproduces_event_stream(self, tiny_dataset, trainer, fault):
        spec = _spec(trainer, scenario=FAULT_SPECS[fault], rounds=3)
        first = repro.run(spec, tiny_dataset)
        second = repro.run(spec, tiny_dataset)
        assert _run_fingerprint(first) == _run_fingerprint(second)
        assert first.participation is not None
        assert first.participation.rounds == 3
        assert first.participation.selected > 0

    @pytest.mark.parametrize("trainer", ["ptf", "fcf"])
    def test_schedulers_agree_under_faults(self, tiny_dataset, trainer):
        results = {
            scheduler: repro.run(
                _spec(trainer, scenario=EVERYTHING, scheduler=scheduler, rounds=3),
                tiny_dataset,
            )
            for scheduler in SCHEDULERS
        }
        assert _run_fingerprint(results["batched"]) == _run_fingerprint(
            results["serial"]
        )

    def test_history_carries_participation_keys(self, tiny_dataset):
        result = repro.run(_spec("ptf", scenario=CHURN, rounds=3), tiny_dataset)
        for record in result.history:
            assert all(key in record.metrics for key in PARTICIPATION_KEYS)
        totals = ParticipationSummary.from_history(result.history)
        assert totals == result.participation

    def test_async_applies_stale_payloads(self, tiny_dataset):
        result = repro.run(
            _spec("ptf", scenario=STRAGGLER_ASYNC, rounds=4), tiny_dataset
        )
        assert result.participation.straggled > 0
        assert result.participation.stale_applied > 0

    def test_sync_discards_stale_payloads(self, tiny_dataset):
        result = repro.run(
            _spec("fedmf", scenario=STRAGGLER_SYNC, rounds=3), tiny_dataset
        )
        assert result.participation.straggled > 0
        assert result.participation.stale_applied == 0

    def test_faults_change_results(self, tiny_dataset):
        clean = repro.run(_spec("ptf", rounds=3), tiny_dataset)
        faulty = repro.run(_spec("ptf", scenario=EVERYTHING, rounds=3), tiny_dataset)
        assert [r.to_dict() for r in clean.history] != [
            r.to_dict() for r in faulty.history
        ]


# ----------------------------------------------------------------------
# Tentpole acceptance: resume replays the same event stream
# ----------------------------------------------------------------------
class TestScenarioResume:
    @pytest.mark.parametrize("trainer", ["ptf", "fedmf"])
    @pytest.mark.parametrize("fault", ["churn", "straggler-async", "everything"])
    def test_resume_bit_identical(self, tmp_path, tiny_dataset, trainer, fault):
        scenario = FAULT_SPECS[fault]
        from repro.artifacts import CheckpointEveryK

        spec = _spec(trainer, scenario=scenario, rounds=4)
        full = repro.run(spec, tiny_dataset)

        callback = CheckpointEveryK(tmp_path / "ckpt", every=2)
        repro.run(spec.replace(rounds=2), tiny_dataset, callbacks=[callback])
        checkpoints = sorted((tmp_path / "ckpt").iterdir())
        resumed = repro.run(spec, tiny_dataset, resume_from=checkpoints[-1])

        assert _run_fingerprint(resumed) == _run_fingerprint(full)

    def test_resume_rejects_changed_scenario(self, tmp_path, tiny_dataset):
        from repro.artifacts import CheckpointEveryK

        spec = _spec("ptf", scenario=CHURN, rounds=2)
        callback = CheckpointEveryK(tmp_path / "ckpt", every=2)
        repro.run(spec, tiny_dataset, callbacks=[callback])
        checkpoint = sorted((tmp_path / "ckpt").iterdir())[-1]
        changed = _spec("ptf", scenario={"dropout": 0.6}, rounds=4)
        with pytest.raises(ValueError, match="resume spec does not match"):
            repro.run(changed, tiny_dataset, resume_from=checkpoint)


# ----------------------------------------------------------------------
# A failing client aborts the run: no scheduler swallows exceptions
# ----------------------------------------------------------------------
class TestClientFailurePropagates:
    """An exception in one client's local training surfaces from ``repro.run``.

    Schedulers never catch client errors, so no run can complete with a
    failure disguised as a ``dropped`` count.  Each case patches the
    function its scheduler actually trains through, with and without a
    scenario (both round loops of each driver).
    """

    VICTIM = 3

    def _patch(self, monkeypatch, owner, name, fails):
        original = getattr(owner, name)

        def flaky(*args, **kwargs):
            if fails(*args, **kwargs):
                raise RuntimeError("injected client failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, flaky)

    def _assert_raises(self, spec, dataset):
        with pytest.raises(RuntimeError, match="injected client failure"):
            repro.run(spec, dataset)

    @pytest.mark.parametrize("scenario", [None, STRAGGLER_ASYNC],
                             ids=["no-scenario", "straggler-async"])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_ptf_local_train_failure(self, monkeypatch, tiny_dataset, scheduler,
                                     scenario):
        from repro.core.client import PTFClient

        self._patch(monkeypatch, PTFClient, "local_train",
                    lambda client, round_index: client.user_id == self.VICTIM)
        # NGCF clients have no stacked implementation, so the batched
        # scheduler trains them through local_train as well.
        spec = _spec("ptf", scenario=scenario, scheduler=scheduler,
                     model={"client_model": "ngcf"})
        self._assert_raises(spec, tiny_dataset)

    @pytest.mark.parametrize("scenario", [None, STRAGGLER_ASYNC],
                             ids=["no-scenario", "straggler-async"])
    @pytest.mark.parametrize("payload", ["dense", "sparse"])
    def test_fedavg_run_local_plan_failure(self, monkeypatch, tiny_dataset,
                                           payload, scenario):
        import repro.federated.base as federated_base

        # The serial scheduler trains FedAvg clients through run_local_plan.
        self._patch(monkeypatch, federated_base, "run_local_plan",
                    lambda model, config, user, plan: user == self.VICTIM)
        spec = _spec("fedmf", scenario=scenario).replace(payload=payload)
        self._assert_raises(spec, tiny_dataset)

    @pytest.mark.parametrize("scenario", [None, STRAGGLER_ASYNC],
                             ids=["no-scenario", "straggler-async"])
    @pytest.mark.parametrize("trainer", ["ptf", "fedmf"])
    def test_stacked_batch_failure(self, monkeypatch, tiny_dataset, trainer,
                                   scenario):
        from repro.engine import ClientBatch

        # The batched scheduler trains stackable models in ClientBatch.run,
        # never calling the per-client entry points patched above; every
        # stacked cohort fails here.
        self._patch(monkeypatch, ClientBatch, "run", lambda batch: True)
        spec = _spec(trainer, scenario=scenario, scheduler="batched")
        self._assert_raises(spec, tiny_dataset)


# ----------------------------------------------------------------------
# Serving under streaming arrivals
# ----------------------------------------------------------------------
class TestServeArrivals:
    def test_unarrived_users_fall_back_and_items_are_hidden(self, tiny_dataset):
        from repro.serve import Recommender

        spec = _spec("ptf", scenario=ARRIVALS, rounds=2)
        adapter = get_trainer("ptf")(spec, tiny_dataset)
        adapter.fit()
        engine = adapter.scenario_engine()
        horizon = adapter.rounds_completed() - 1
        arrived = engine.arrived_user_set(horizon)
        cold_users = [user for user in tiny_dataset.users if user not in arrived]
        assert cold_users, "fixture should hold back some users"

        service = Recommender.from_trainer(adapter, tiny_dataset)
        recommendations = service.recommend(list(tiny_dataset.users), k=10)
        assert service.cold_hits == len(cold_users)

        hidden = set(np.flatnonzero(~engine.arrived_item_mask(horizon)).tolist())
        assert hidden, "fixture should hold back some items"
        rows = (recommendations if isinstance(recommendations, list)
                else list(recommendations))
        for row in rows:
            assert not set(np.atleast_1d(row).tolist()) & hidden

    def test_scenario_free_serving_unchanged(self, tiny_dataset):
        from repro.serve import Recommender

        spec = _spec("ptf", rounds=2)
        adapter = get_trainer("ptf")(spec, tiny_dataset)
        adapter.fit()
        service = Recommender.from_trainer(adapter, tiny_dataset)
        assert service._item_mask is None
        assert adapter.scenario_engine() is not None
        assert not adapter.scenario_engine().enabled
