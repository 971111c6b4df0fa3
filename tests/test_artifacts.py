"""Tests for repro.artifacts: checkpoint format, resume fidelity, callbacks.

The headline contract: ``repro.run(spec)`` for N rounds equals
checkpoint-at-N/2 followed by ``repro.run(spec, resume_from=...)``
**bit-identically** — metrics compared with ``==``, final parameters with
exact array equality — for every trainer and every execution scheduler.
"""

from __future__ import annotations

import io
import json
import pickle
import shutil
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.artifacts import (
    SCHEMA_VERSION,
    CheckpointEveryK,
    dataset_fingerprint,
    flatten_state,
    load_checkpoint,
    save_checkpoint,
    unflatten_state,
)
from repro.experiments import (
    CommunicationSummary,
    ExperimentSpec,
    PrivacySummary,
    RoundRecord,
    RunResult,
    create_trainer,
)

ROUNDS = 4
HALF = ROUNDS // 2


def tiny_spec(trainer: str = "ptf", **overrides) -> ExperimentSpec:
    base = dict(
        trainer=trainer,
        seed=11,
        embedding_dim=8,
        rounds=ROUNDS,
        client_local_epochs=1,
        server_epochs=1,
        alpha=10,
    )
    base.update(overrides)
    trainer = base.pop("trainer")
    seed = base.pop("seed")
    return ExperimentSpec.from_flat(trainer=trainer, seed=seed, **base)


def assert_states_equal(left: dict, right: dict, path: str = "") -> None:
    """Exact (bitwise) equality of two state trees."""
    assert type(left) is type(right) or (
        isinstance(left, (int, float)) and isinstance(right, (int, float))
    ), f"type mismatch at {path}: {type(left)} vs {type(right)}"
    if isinstance(left, dict):
        assert set(left) == set(right), f"key mismatch at {path}"
        for key in left:
            assert_states_equal(left[key], right[key], f"{path}/{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), f"length mismatch at {path}"
        for index, (a, b) in enumerate(zip(left, right)):
            assert_states_equal(a, b, f"{path}/{index}")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, f"dtype mismatch at {path}"
        assert np.array_equal(left, right), f"array mismatch at {path}"
    else:
        assert left == right, f"value mismatch at {path}: {left!r} vs {right!r}"


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_flatten_roundtrip(self):
        tree = {
            "model": {"w.weight": np.arange(6.0).reshape(2, 3)},
            "steps": {"0": 3},
            "history": [1.5, {"nested": np.array([1, 2])}],
            "name": "x",
            "none": None,
        }
        twin, arrays = flatten_state(tree)
        json.dumps(twin)  # the twin must be JSON-safe
        rebuilt = unflatten_state(twin, arrays)
        assert_states_equal(rebuilt, tree)

    def test_flatten_paths_are_readable(self):
        _, arrays = flatten_state({"server": {"model": {"w": np.zeros(2)}}})
        assert list(arrays) == ["server/model/w"]

    def test_manifest_contents(self, tiny_dataset, tmp_path):
        spec = tiny_spec(rounds=1)
        adapter = create_trainer(spec, tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["trainer"] == "ptf"
        assert manifest["rounds_completed"] == 1
        assert manifest["spec"] == spec.to_dict()
        assert manifest["fingerprint"] == dataset_fingerprint(tiny_dataset)
        assert (tmp_path / "ck" / manifest["arrays_file"]).exists()

    def test_unknown_schema_version_rejected(self, tiny_dataset, tmp_path):
        spec = tiny_spec(rounds=1)
        adapter = create_trainer(spec, tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema version"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")

    def test_checkpoint_is_self_contained(self, tiny_dataset, tmp_path):
        spec = tiny_spec(rounds=1)
        adapter = create_trainer(spec, tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        checkpoint = load_checkpoint(tmp_path / "ck")
        rebuilt = checkpoint.dataset()
        assert dataset_fingerprint(rebuilt) == dataset_fingerprint(tiny_dataset)
        assert rebuilt.name == tiny_dataset.name

    def test_fingerprint_mismatch_rejected(self, tiny_dataset, small_dataset, tmp_path):
        spec = tiny_spec(rounds=1)
        adapter = create_trainer(spec, tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        checkpoint = load_checkpoint(tmp_path / "ck")
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            checkpoint.restore(small_dataset)


# ----------------------------------------------------------------------
# Resume fidelity (the acceptance bar)
# ----------------------------------------------------------------------
class TestResumeFidelity:
    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "fedmf", "metamf", "centralized"])
    def test_resume_is_bit_identical(self, trainer, tiny_dataset, tmp_path):
        spec = tiny_spec(trainer)
        full = repro.run(spec, tiny_dataset)

        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        resumed = repro.run(spec, tiny_dataset, resume_from=tmp_path / "ck" / "latest")

        # Metrics compare with == (not allclose): same bits or bust.
        assert resumed.rounds_completed == full.rounds_completed == ROUNDS
        assert resumed.history == full.history
        assert resumed.final == full.final
        assert resumed.communication == full.communication
        assert resumed.privacy == full.privacy

    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "centralized"])
    def test_final_parameters_are_bit_identical(self, trainer, tiny_dataset, tmp_path):
        spec = tiny_spec(trainer)
        full = create_trainer(spec, tiny_dataset).fit()

        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        resumed = load_checkpoint(tmp_path / "ck" / "latest").restore(tiny_dataset)
        resumed.fit(rounds=ROUNDS - HALF)

        assert_states_equal(resumed.state_dict(), full.state_dict())

    def test_resume_uses_embedded_dataset_by_default(self, tiny_dataset, tmp_path):
        spec = tiny_spec()
        full = repro.run(spec, tiny_dataset)
        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        resumed = repro.run(spec, resume_from=tmp_path / "ck" / "latest")
        assert resumed.final == full.final

    def test_resume_can_extend_a_finished_run(self, tiny_dataset, tmp_path):
        spec = tiny_spec(rounds=HALF)
        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec, tiny_dataset, callbacks=[callback])
        extended = repro.run(
            spec.replace(rounds=ROUNDS), tiny_dataset,
            resume_from=tmp_path / "ck" / "latest",
        )
        full = repro.run(tiny_spec(rounds=ROUNDS), tiny_dataset)
        assert extended.rounds_completed == ROUNDS
        assert extended.history == full.history
        assert extended.final == full.final

    def test_resume_rejects_incompatible_spec(self, tiny_dataset, tmp_path):
        spec = tiny_spec()
        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        with pytest.raises(ValueError, match="does not match the checkpoint"):
            repro.run(spec.replace(embedding_dim=4), tiny_dataset,
                      resume_from=tmp_path / "ck" / "latest")

    def test_checkpoint_callback_resumes_history(self, tiny_dataset, tmp_path):
        """A checkpoint taken after a resume carries the *whole* history."""
        spec = tiny_spec()
        first = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[first])
        second = CheckpointEveryK(tmp_path / "ck2", every=1, save_on_fit_end=False)
        resumed = repro.run(spec, tiny_dataset,
                            resume_from=tmp_path / "ck" / "latest",
                            callbacks=[second])
        final_checkpoint = load_checkpoint(tmp_path / "ck2" / "latest")
        assert final_checkpoint.history == resumed.history
        assert [r.round_index for r in final_checkpoint.history] == list(range(ROUNDS))


class TestBareSystemCheckpoint:
    """A directly built driver carries its spec, so it checkpoints alone."""

    @pytest.mark.parametrize("trainer", ["fcf", "fedmf", "metamf"])
    def test_bare_driver_resumes_bit_identically(self, trainer, tiny_dataset, tmp_path):
        from repro.federated import FCF, FedMF, MetaMF

        system_cls = {"fcf": FCF, "fedmf": FedMF, "metamf": MetaMF}[trainer]
        spec = tiny_spec(trainer, rounds=3)
        system = system_cls(tiny_dataset, spec).fit(rounds=1)
        save_checkpoint(tmp_path / "ck", system)
        resumed = load_checkpoint(tmp_path / "ck").restore()
        resumed.fit(rounds=2)

        full = system_cls(tiny_dataset, spec).fit()
        assert resumed.rounds_completed() == full.rounds_completed == 3
        for (name, left), (_, right) in zip(
            resumed.system.model.named_parameters(), full.model.named_parameters()
        ):
            assert np.array_equal(left.data, right.data), name
        assert_states_equal(resumed.state_dict(), full.state_dict())


# ----------------------------------------------------------------------
# Optimizer state across engine schedulers (satellite)
# ----------------------------------------------------------------------
class TestOptimizerStateAcrossSchedulers:
    @pytest.mark.parametrize("scheduler", ["serial", "batched"])
    def test_reload_then_continue_matches_uninterrupted(
        self, scheduler, tiny_dataset, tmp_path
    ):
        spec = tiny_spec(scheduler=scheduler)
        full = repro.run(spec, tiny_dataset)

        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        resumed = repro.run(spec, tiny_dataset, resume_from=tmp_path / "ck" / "latest")
        assert resumed.history == full.history
        assert resumed.final == full.final

    @pytest.mark.parametrize("scheduler", ["serial", "batched"])
    def test_adam_state_survives_checkpoint_and_pickle(
        self, scheduler, tiny_dataset, tmp_path
    ):
        """Index-keyed Adam state round-trips through the artifact *and*
        through pickle."""
        spec = tiny_spec(scheduler=scheduler, rounds=HALF)
        adapter = create_trainer(spec, tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)

        reloaded = load_checkpoint(tmp_path / "ck").restore(tiny_dataset)
        user = sorted(adapter.system.clients)[0]
        original = adapter.system.clients[user].optimizer
        restored = reloaded.system.clients[user].optimizer
        assert original.has_state() and restored.has_state()
        assert_states_equal(restored.state_dict(), original.state_dict())

        pickled = pickle.loads(pickle.dumps(restored))
        assert_states_equal(pickled.state_dict(), original.state_dict())


# ----------------------------------------------------------------------
# RunResult / summary round-trips (satellite)
# ----------------------------------------------------------------------
class TestResultRoundTrips:
    def test_round_record_roundtrip(self):
        record = RoundRecord(3, {"client_loss": 0.25, "ndcg": 0.5})
        assert RoundRecord.from_dict(record.to_dict()) == record

    def test_communication_summary_roundtrip(self):
        summary = CommunicationSummary(1024, 16, 3.5)
        assert CommunicationSummary.from_dict(summary.to_dict()) == summary

    def test_privacy_summary_roundtrip(self):
        summary = PrivacySummary(mean_f1=0.31, guess_ratio=0.2, num_clients=25)
        assert PrivacySummary.from_dict(summary.to_dict()) == summary

    def test_run_result_roundtrip_and_save_load(self, tiny_dataset, tmp_path):
        result = repro.run(tiny_spec(rounds=1), tiny_dataset)
        assert RunResult.from_dict(result.to_dict()) == result
        path = result.save(tmp_path / "deep" / "result.json")
        assert RunResult.load(path) == result

    def test_run_result_without_privacy(self, tiny_dataset, tmp_path):
        result = repro.run(tiny_spec("fcf", rounds=1), tiny_dataset)
        assert result.privacy is None
        assert RunResult.from_dict(result.to_dict()) == result


# ----------------------------------------------------------------------
# Specs stored before the multiprocess scheduler was removed
# ----------------------------------------------------------------------
class TestLegacyEngineFields:
    """Older artifacts carry ``engine.workers``; they must keep loading."""

    def test_spec_with_workers_loads_unchanged(self):
        spec = tiny_spec(scheduler="batched")
        data = spec.to_dict()
        data["engine"]["workers"] = 0
        loaded = ExperimentSpec.from_dict(data)
        assert loaded == spec
        assert loaded.fingerprint() == spec.fingerprint()

    def test_run_result_with_workers_loads(self, tiny_dataset):
        result = repro.run(tiny_spec(rounds=1), tiny_dataset)
        data = result.to_dict()
        data["spec"]["engine"]["workers"] = 0
        loaded = RunResult.from_dict(data)
        assert loaded == result
        assert loaded.spec.fingerprint() == result.spec.fingerprint()

    def test_checkpoint_with_workers_restores(self, tiny_dataset, tmp_path):
        spec = tiny_spec()
        full = repro.run(spec, tiny_dataset)
        callback = CheckpointEveryK(tmp_path / "ck", every=HALF, save_on_fit_end=False)
        repro.run(spec.replace(rounds=HALF), tiny_dataset, callbacks=[callback])
        latest = tmp_path / "ck" / "latest"
        manifest_path = latest / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["engine"]["workers"] = 0
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        checkpoint = load_checkpoint(latest)
        assert checkpoint.spec.fingerprint() == spec.replace(rounds=HALF).fingerprint()
        assert checkpoint.restore(tiny_dataset).rounds_completed() == HALF
        resumed = repro.run(spec, tiny_dataset, resume_from=latest)
        assert resumed.history == full.history
        assert resumed.final == full.final

    @pytest.mark.parametrize("scheduler", ["serial", "batched"])
    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "fedmf", "metamf", "centralized"])
    def test_every_trainer_spec_with_workers_loads(self, trainer, scheduler):
        spec = tiny_spec(trainer, scheduler=scheduler)
        data = json.loads(spec.to_json())
        data["engine"]["workers"] = 2
        loaded = ExperimentSpec.from_json(json.dumps(data))
        assert loaded == spec
        assert loaded.to_dict() == spec.to_dict()  # the key is gone on re-save
        assert loaded.fingerprint() == spec.fingerprint()

    def test_sweep_store_slot_with_workers_is_a_cache_hit(self, tmp_path):
        from repro.sweep import ArtifactStore, SweepSpec, run_sweep

        sweep = SweepSpec.from_grid(
            "legacy", base={"trainer": "fcf", "protocol": {"rounds": 1},
                            "model": {"embedding_dim": 4}},
            grid={"seed": [0, 1]}, dataset={"source": "debug", "seed": 5},
        )
        first = run_sweep(sweep, store=tmp_path, workers=1)
        store = ArtifactStore(tmp_path)
        for fingerprint in store.fingerprints():
            path = store.result_path(fingerprint)
            stored = json.loads(path.read_text(encoding="utf-8"))
            stored["spec"]["engine"]["workers"] = 0
            path.write_text(json.dumps(stored), encoding="utf-8")

        second = run_sweep(sweep, store=tmp_path, workers=1)
        assert second.report.executed == 0 and second.report.cache_hits == 2
        assert second.results == first.results

    def test_stored_multiprocess_scheduler_is_rejected(self):
        data = tiny_spec().to_dict()
        data["engine"].update(scheduler="multiprocess", workers=2)
        with pytest.raises(ValueError, match="multiprocess.*removed.*batched"):
            ExperimentSpec.from_dict(data)

    def test_stored_multiprocess_run_result_is_rejected(self, tiny_dataset):
        data = repro.run(tiny_spec(rounds=1), tiny_dataset).to_dict()
        data["spec"]["engine"].update(scheduler="multiprocess", workers=2)
        with pytest.raises(ValueError, match="multiprocess.*removed.*batched"):
            RunResult.from_dict(data)

    def test_stored_multiprocess_checkpoint_is_rejected(self, tiny_dataset, tmp_path):
        adapter = create_trainer(tiny_spec(rounds=1), tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["engine"].update(scheduler="multiprocess", workers=2)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="multiprocess.*removed.*batched"):
            load_checkpoint(tmp_path / "ck")


# ----------------------------------------------------------------------
# Torn-read safety of the background load path (serving hot swap)
# ----------------------------------------------------------------------
class TestLoadDuringRewrite:
    """load_checkpoint vs a concurrent save_checkpoint to the same path.

    The gateway's hot swap loads ``latest/`` while a trainer may be
    rewriting it; the loader must never pair one version's manifest with
    another version's arrays, and must ride out the instant between the
    directory renames where the path does not exist.
    """

    def _two_versions(self, tiny_dataset, tmp_path):
        spec = tiny_spec("fcf")
        adapter = create_trainer(spec.replace(rounds=1), tiny_dataset)
        adapter.fit()
        save_checkpoint(tmp_path / "ck", adapter, spec=spec.replace(rounds=1))
        old_text = (tmp_path / "ck" / "manifest.json").read_text(encoding="utf-8")
        adapter.fit(rounds=1)  # train one more round, rewrite in place
        save_checkpoint(tmp_path / "ck", adapter, spec=spec.replace(rounds=2))
        new_text = (tmp_path / "ck" / "manifest.json").read_text(encoding="utf-8")
        assert old_text != new_text
        return old_text, new_text

    def test_stale_manifest_restarts_from_fresh_one(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        from repro.artifacts import checkpoint as checkpoint_module

        old_text, new_text = self._two_versions(tiny_dataset, tmp_path)
        real_read = checkpoint_module._read_manifest_text
        calls = {"n": 0}

        def stale_first(path):
            calls["n"] += 1
            if calls["n"] == 1:  # the read that raced the rewrite
                return old_text
            return real_read(path)

        monkeypatch.setattr(checkpoint_module, "_read_manifest_text", stale_first)
        loaded = load_checkpoint(tmp_path / "ck")
        # The load restarted and returned the *new* artifact consistently.
        assert loaded.rounds_completed == 2
        assert calls["n"] >= 2

    def test_transiently_missing_path_is_retried(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        from repro.artifacts import checkpoint as checkpoint_module

        self._two_versions(tiny_dataset, tmp_path)
        real_read = checkpoint_module._read_manifest_text
        calls = {"n": 0}

        def vanishes_once(path):
            calls["n"] += 1
            if calls["n"] == 2:  # mid-swap: old parked, new not yet renamed
                raise FileNotFoundError("mid-swap window")
            return real_read(path)

        monkeypatch.setattr(checkpoint_module, "_read_manifest_text", vanishes_once)
        assert load_checkpoint(tmp_path / "ck").rounds_completed == 2

    def test_path_missing_on_consecutive_reads_is_retried(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        from repro.artifacts import checkpoint as checkpoint_module

        self._two_versions(tiny_dataset, tmp_path)
        real_read = checkpoint_module._read_manifest_text
        calls = {"n": 0}

        def vanishes_twice(path):
            calls["n"] += 1
            if calls["n"] in (2, 3):  # the fresh read after the miss misses too
                raise FileNotFoundError("mid-swap window")
            return real_read(path)

        monkeypatch.setattr(checkpoint_module, "_read_manifest_text", vanishes_twice)
        assert load_checkpoint(tmp_path / "ck").rounds_completed == 2
        assert calls["n"] == 5

    def test_path_that_stays_missing_raises_file_not_found(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        from repro.artifacts import checkpoint as checkpoint_module

        self._two_versions(tiny_dataset, tmp_path)
        real_read = checkpoint_module._read_manifest_text
        calls = {"n": 0}

        def vanishes_for_good(path):
            calls["n"] += 1
            if calls["n"] > 1:
                raise FileNotFoundError("deleted mid-load")
            return real_read(path)

        monkeypatch.setattr(checkpoint_module, "_read_manifest_text", vanishes_for_good)
        with pytest.raises(FileNotFoundError, match="stayed missing"):
            load_checkpoint(tmp_path / "ck")
        assert calls["n"] == 1 + checkpoint_module._LOAD_RETRIES

    def test_endless_rewrites_raise_instead_of_looping(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        from repro.artifacts import checkpoint as checkpoint_module

        old_text, new_text = self._two_versions(tiny_dataset, tmp_path)
        texts = [old_text, new_text]
        calls = {"n": 0}

        def flapping(path):
            calls["n"] += 1
            return texts[calls["n"] % 2]

        monkeypatch.setattr(checkpoint_module, "_read_manifest_text", flapping)
        with pytest.raises(RuntimeError, match="kept changing"):
            load_checkpoint(tmp_path / "ck")


# ----------------------------------------------------------------------
# Stacked layout (schema v3): per-client arrays share one member per leaf
# ----------------------------------------------------------------------
_DTYPES = [np.bool_, np.int32, np.int64, np.float32, np.float64]
_SHAPES = [(), (0,), (3,), (2, 3), (1, 0, 2)]
_LEAF_NAMES = ["w", "b", "items", "scores"]


@st.composite
def _arrays(draw, dtype=None, shape=None):
    dtype = draw(st.sampled_from(_DTYPES)) if dtype is None else dtype
    shape = draw(st.sampled_from(_SHAPES)) if shape is None else shape
    return draw(hnp.arrays(dtype, shape))


@st.composite
def _sibling_trees(draw):
    """Client-like sibling subtrees over one drawn layout, each of which may
    drop a leaf or hold it with another shape or dtype."""
    layout = draw(st.dictionaries(
        st.sampled_from(_LEAF_NAMES),
        st.tuples(st.sampled_from(_DTYPES), st.sampled_from(_SHAPES)),
        min_size=1,
    ))
    clients = {}
    for client in draw(st.lists(st.integers(0, 99), min_size=2, max_size=5, unique=True)):
        leaves = {}
        for name, (dtype, shape) in layout.items():
            variant = draw(st.sampled_from(["same", "same", "missing", "other"]))
            if variant == "missing":
                continue
            if variant == "other":
                leaves[name] = draw(_arrays())
            else:
                leaves[name] = draw(_arrays(dtype, shape))
        moments = draw(st.integers(0, 2))  # an optimizer that may never have stepped
        clients[client] = {
            "model": leaves,
            "optimizer": {
                "steps": {index: 1 for index in range(moments)},
                "first_moment": {index: draw(_arrays(np.float64, (3,))) for index in range(moments)},
                "second_moment": {index: draw(_arrays(np.float64, (3,))) for index in range(moments)},
            },
            "history": [draw(st.integers(-5, 5)), None, draw(_arrays())],
        }
    return {"state": {"clients": clients, "server": {"w": draw(_arrays())}, "rounds": 3},
            "dataset": {"train_pairs": draw(_arrays(np.int64, (2, 3)))}}


def _leaves(tree):
    if isinstance(tree, dict):
        for value in tree.values():
            yield from _leaves(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from _leaves(value)
    elif isinstance(tree, np.ndarray):
        yield tree


def _assert_bitwise_equal(left, right, path=""):
    """Like assert_states_equal, but NaN-safe: arrays compare as raw bytes."""
    if isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), path
        assert (left.dtype, left.shape) == (right.dtype, right.shape), path
        assert left.tobytes() == right.tobytes(), path
    elif isinstance(left, dict):
        assert set(map(str, left)) == set(right), path
        for key, value in left.items():
            _assert_bitwise_equal(value, right[str(key)], f"{path}/{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            _assert_bitwise_equal(a, b, f"{path}/{index}")
    else:
        assert left == right, path


def _assert_no_shared_memory(tree):
    leaves = list(_leaves(tree))
    for index, left in enumerate(leaves):
        for right in leaves[index + 1:]:
            assert not np.shares_memory(left, right)


def _npz_roundtrip(arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as payload:
        return {key: payload[key] for key in payload.files}


class TestStackedLayout:
    @settings(max_examples=60, deadline=None)
    @given(_sibling_trees())
    def test_roundtrip_is_exact_and_unshared(self, tree):
        twin, arrays = flatten_state(tree)
        json.dumps(twin)
        rebuilt = unflatten_state(json.loads(json.dumps(twin)), _npz_roundtrip(arrays))
        _assert_bitwise_equal(tree, rebuilt)
        _assert_no_shared_memory(rebuilt)

    def test_sibling_leaves_share_one_member(self):
        clients = {user: {"w": np.full((2, 3), user, dtype=np.float32),
                          "items": np.arange(user)}
                   for user in (1, 2, 3)}
        twin, arrays = flatten_state({"clients": clients})
        assert np.asarray(arrays["clients/*/w"]).shape == (3, 2, 3)
        assert twin["clients"]["2"]["w"] == {"__array__": "clients/*/w", "row": 1}
        # Ragged leaves match no sibling and keep one member each.
        assert {"clients/1/items", "clients/2/items", "clients/3/items"} <= set(arrays)
        assert twin["clients"]["3"]["items"] == {"__array__": "clients/3/items"}

    def test_outer_siblings_claim_before_inner_ones(self):
        """Adam's moment dicts are themselves siblings; the per-client level
        stacks them first, so the member count does not grow with clients."""
        def client():
            return {"optimizer": {"first_moment": {0: np.zeros(2)},
                                  "second_moment": {0: np.ones(2)}}}

        _, arrays = flatten_state({"clients": {user: client() for user in range(4)}})
        assert sorted(arrays) == ["clients/*/optimizer/first_moment/0",
                                  "clients/*/optimizer/second_moment/0"]

    def test_wildcard_key_is_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            flatten_state({"clients": {"*": {"w": np.zeros(1)}, "1": {"w": np.zeros(1)}}})

    def test_member_count_does_not_grow_with_clients(self, tmp_path):
        from repro.data import debug_dataset
        from repro.utils import RngFactory

        counts = []
        for users in (10, 25):
            dataset = debug_dataset(RngFactory(1).spawn("layout"), num_users=users,
                                    num_items=100, num_interactions=8 * users)
            adapter = create_trainer(tiny_spec(rounds=1, alpha=5), dataset).fit()
            path = save_checkpoint(tmp_path / f"ck-{users}", adapter)
            with np.load(path / "arrays.npz") as payload:
                counts.append(len(payload.files))
        assert counts[0] == counts[1]

    def test_restored_checkpoint_leaves_share_no_memory(self, tiny_dataset, tmp_path):
        adapter = create_trainer(tiny_spec(rounds=1), tiny_dataset).fit()
        save_checkpoint(tmp_path / "ck", adapter)
        checkpoint = load_checkpoint(tmp_path / "ck")
        assert checkpoint.schema_version == SCHEMA_VERSION == 3
        _assert_no_shared_memory(checkpoint.state)
        assert_states_equal(checkpoint.restore().state_dict(), adapter.state_dict())


# ----------------------------------------------------------------------
# Checkpoints written by schema v2 (the compressed per-array layout)
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"


class TestSchemaV2Fixtures:
    """Small checkpoints written before the stacked layout, one round in."""

    @pytest.mark.parametrize("name", ["ptf-v2", "fcf-v2"])
    def test_v2_checkpoint_resumes_identically(self, name):
        path = FIXTURES / name
        checkpoint = load_checkpoint(path)
        assert checkpoint.schema_version == 2 and checkpoint.rounds_completed == 1
        spec = checkpoint.spec.replace(rounds=2)
        dataset = checkpoint.dataset()

        full = repro.run(spec, dataset)
        resumed = repro.run(spec, resume_from=path)
        assert resumed.history == full.history
        assert resumed.final == full.final
        assert resumed.communication == full.communication
        assert resumed.privacy == full.privacy

        # Parameters, optimizer state and the ledger: the full state tree.
        uninterrupted = create_trainer(spec, dataset).fit()
        continued = load_checkpoint(path).restore()
        continued.fit(rounds=1)
        assert_states_equal(continued.state_dict(), uninterrupted.state_dict())

    def test_v2_placeholders_carry_no_row(self):
        manifest = json.loads((FIXTURES / "ptf-v2" / "manifest.json").read_text())
        assert manifest["schema_version"] == 2
        assert set(manifest["state"]["clients"]["0"]["server_items"]) == {"__array__"}


# ----------------------------------------------------------------------
# Corrupt payloads fail loudly
# ----------------------------------------------------------------------
def _flip_member_byte(path):
    """Flip one byte in the middle of the payload's largest member."""
    arrays_path = path / "arrays.npz"
    with zipfile.ZipFile(arrays_path) as archive:
        info = max(archive.infolist(), key=lambda entry: entry.compress_size)
    data = bytearray(arrays_path.read_bytes())
    name_length, extra_length = struct.unpack("<HH", data[info.header_offset + 26:
                                                          info.header_offset + 30])
    start = info.header_offset + 30 + name_length + extra_length
    data[start + info.compress_size // 2] ^= 0xFF
    arrays_path.write_bytes(bytes(data))


def _truncate(path):
    arrays_path = path / "arrays.npz"
    data = arrays_path.read_bytes()
    arrays_path.write_bytes(data[: len(data) // 2])


class TestCorruptPayload:
    @pytest.fixture(params=["v3", "v2"])
    def checkpoint_path(self, request, tiny_dataset, tmp_path):
        if request.param == "v2":
            return Path(shutil.copytree(FIXTURES / "ptf-v2", tmp_path / "ck"))
        adapter = create_trainer(tiny_spec(rounds=1), tiny_dataset).fit()
        return save_checkpoint(tmp_path / "ck", adapter)

    @pytest.mark.parametrize("corrupt", [_truncate, _flip_member_byte])
    def test_corrupt_arrays_raise_value_error(self, checkpoint_path, corrupt):
        corrupt(checkpoint_path)
        with pytest.raises(ValueError, match="corrupt array payload") as raised:
            load_checkpoint(checkpoint_path)
        assert str(checkpoint_path) in str(raised.value)
        assert isinstance(raised.value.__cause__, zipfile.BadZipFile)
