"""Tests for the pluggable tensor backends and the precision policy.

Covers the backend registry, the context-local activation model, the
thread-safety of the grad-recording flag, the tensor aliasing contract,
the fused optimizer kernels, the full-op-set gradient checks under both
shipped backends, and the spec/checkpoint plumbing that makes the policy
end-to-end.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.artifacts import load_checkpoint, save_checkpoint
from repro.experiments.registry import get_trainer
from repro.experiments.spec import ExperimentSpec
from repro.optim import SGD, Adam
from repro.tensor import (
    Numpy32Backend,
    NumpyBackend,
    Tensor,
    active_backend,
    available_backends,
    check_gradients,
    get_backend,
    is_grad_enabled,
    no_grad,
    register_backend,
    use_backend,
)
from repro.tensor import functional as F
from repro.utils.rng import RngFactory

BACKENDS = ("numpy", "numpy32")


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(trainer="ptf", seed=11, rounds=2, embedding_dim=8,
                client_mlp_layers=(16, 8), alpha=10, client_local_epochs=1,
                server_epochs=1)
    base.update(overrides)
    return ExperimentSpec.from_flat(**base)


def small_dataset():
    from repro.data import debug_dataset

    return debug_dataset(RngFactory(5).spawn("backend-data"), num_users=15,
                         num_items=30, num_interactions=250)


# ----------------------------------------------------------------------
# Registry and activation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_backends_registered(self):
        assert "numpy" in available_backends()
        assert "numpy32" in available_backends()
        assert get_backend("numpy").dtype == np.float64
        assert get_backend("numpy32").dtype == np.float32
        assert get_backend("numpy32").inplace

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown tensor backend"):
            get_backend("cuda")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())

    def test_get_backend_passthrough(self):
        backend = get_backend("numpy32")
        assert get_backend(backend) is backend
        assert get_backend(None) is active_backend()

    def test_use_backend_nests_and_restores(self):
        session_default = active_backend().name
        with use_backend("numpy32"):
            assert active_backend().name == "numpy32"
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "numpy32"
        assert active_backend().name == session_default

    def test_use_backend_none_is_passthrough(self):
        with use_backend("numpy32"):
            with use_backend(None) as backend:
                assert backend.name == "numpy32"

    def test_backend_is_context_local_across_threads(self):
        session_default = active_backend().name
        other = "numpy32" if session_default == "numpy" else "numpy"
        observed = {}

        def worker():
            observed["name"] = active_backend().name

        with use_backend(other):
            # A thread started outside the context sees the session default.
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert observed["name"] == session_default


# ----------------------------------------------------------------------
# Grad flag: context-local no_grad (regression for the global flag)
# ----------------------------------------------------------------------
class TestNoGradThreading:
    def test_no_grad_does_not_leak_into_other_threads(self):
        entered = threading.Event()
        release = threading.Event()
        results = {}

        def inference():
            with no_grad():
                entered.set()
                release.wait(timeout=5.0)

        def training():
            entered.wait(timeout=5.0)
            # The inference thread is inside no_grad() right now; this
            # thread must still record gradients.
            results["enabled"] = is_grad_enabled()
            x = Tensor(np.ones(3), requires_grad=True)
            (x * x).sum().backward()
            results["grad"] = x.grad is not None
            release.set()

        t1 = threading.Thread(target=inference)
        t2 = threading.Thread(target=training)
        t1.start(); t2.start()
        t1.join(timeout=10.0); t2.join(timeout=10.0)
        assert results["enabled"] is True
        assert results["grad"] is True

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_grad_skips_graph_bookkeeping_entirely(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with no_grad():
            out = ((x * 2.0) + 1.0).sigmoid().sum()
        assert out._backward is None
        assert out._parents == ()
        with pytest.raises(RuntimeError):
            out.backward()


# ----------------------------------------------------------------------
# Aliasing contract
# ----------------------------------------------------------------------
class TestAliasing:
    def test_matching_dtype_array_is_shared(self):
        raw = np.ones(4, dtype=active_backend().dtype)
        tensor = Tensor(raw)
        assert tensor.data is raw
        tensor.data[0] = 7.0
        assert raw[0] == 7.0  # mutation visible through the caller's alias
        raw[1] = -3.0
        assert tensor.data[1] == -3.0

    def test_copy_knob_isolates(self):
        raw = np.ones(4, dtype=active_backend().dtype)
        tensor = Tensor(raw, copy=True)
        assert tensor.data is not raw
        tensor.data[0] = 7.0
        assert raw[0] == 1.0

    def test_dtype_mismatch_always_copies(self):
        target = active_backend().dtype
        foreign = np.float32 if target == np.float64 else np.float64
        raw = np.ones(4, dtype=foreign)
        tensor = Tensor(raw)  # the constructor normalizes to the backend dtype
        assert tensor.data.dtype == target
        tensor.data[0] = 9.0
        assert raw[0] == 1.0

    def test_detach_shares_storage_and_dtype(self):
        with use_backend("numpy32"):
            tensor = Tensor(np.ones(3), requires_grad=True)
        detached = tensor.detach()
        assert detached.data is tensor.data
        assert detached.dtype == np.float32  # no renormalization on detach


# ----------------------------------------------------------------------
# Precision policy
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_construction_follows_active_backend(self):
        assert Tensor([1.0, 2.0]).dtype == active_backend().dtype
        with use_backend("numpy32"):
            assert Tensor([1.0, 2.0]).dtype == np.float32
            assert Tensor.zeros((2, 2)).dtype == np.float32
            assert Tensor.randn((3,), np.random.default_rng(0)).dtype == np.float32
        with use_backend("numpy"):
            assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_ops_preserve_dtype_outside_context(self):
        with use_backend("numpy32"):
            a = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 2)))
        # No backend active here: results must stay float32 regardless.
        out = (a.matmul(b) * 2.0).sigmoid().sum()
        assert out.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float32

    def test_module_parameters_follow_backend(self):
        from repro.nn import Embedding, Linear

        rng = np.random.default_rng(3)
        with use_backend("numpy32"):
            linear = Linear(4, 2, rng=rng)
            table = Embedding(5, 4, rng=rng)
        assert linear.weight.dtype == np.float32
        assert linear.bias.dtype == np.float32
        assert table.weight.dtype == np.float32
        assert table.update_counts.dtype == np.int64  # counters stay integral

    def test_graph_adjacency_follows_model_dtype(self):
        from repro.models.ngcf import NGCF

        with use_backend("numpy32"):
            model = NGCF(3, 4, embedding_dim=4, num_layers=1,
                         rng=np.random.default_rng(0),
                         interaction_pairs=[(0, 1), (1, 2)])
        assert model.adjacency.dtype == np.float32
        # Rebuilding the graph outside the context keeps the model's dtype.
        model.set_interaction_graph([(0, 0), (2, 3)])
        assert model.adjacency.dtype == np.float32
        assert model.propagate().dtype == np.float32


# ----------------------------------------------------------------------
# Fused optimizer kernels
# ----------------------------------------------------------------------
class TestFusedKernels:
    @pytest.mark.parametrize("momentum,weight_decay", [
        (0.0, 0.0), (0.9, 0.0), (0.0, 0.01), (0.9, 0.01),
    ])
    def test_fused_sgd_matches_reference_bitwise(self, momentum, weight_decay):
        rng = np.random.default_rng(0)
        reference, fused = NumpyBackend(), Numpy32Backend()
        data_a = rng.normal(size=(6, 4))
        data_b = data_a.copy()
        velocity_a = velocity_b = None
        scratch = (np.empty_like(data_b), np.empty_like(data_b))
        for _ in range(5):
            grad = rng.normal(size=data_a.shape)
            data_a, velocity_a = reference.sgd_update(
                data_a, grad, 0.05, momentum=momentum,
                weight_decay=weight_decay, velocity=velocity_a)
            data_b, velocity_b = fused.sgd_update(
                data_b, grad.copy(), 0.05, momentum=momentum,
                weight_decay=weight_decay, velocity=velocity_b, scratch=scratch)
            np.testing.assert_array_equal(data_a, data_b)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fused_adam_matches_reference_bitwise(self, weight_decay):
        rng = np.random.default_rng(1)
        reference, fused = NumpyBackend(), Numpy32Backend()
        data_a = rng.normal(size=(5, 3))
        data_b = data_a.copy()
        first_a = np.zeros_like(data_a); second_a = np.zeros_like(data_a)
        first_b = np.zeros_like(data_b); second_b = np.zeros_like(data_b)
        scratch = (np.empty_like(data_b), np.empty_like(data_b))
        for step in range(1, 6):
            grad = rng.normal(size=data_a.shape)
            data_a, first_a, second_a = reference.adam_update(
                data_a, grad, step, first_a, second_a,
                0.001, 0.9, 0.999, 1e-8, weight_decay=weight_decay)
            data_b, first_b, second_b = fused.adam_update(
                data_b, grad.copy(), step, first_b, second_b,
                0.001, 0.9, 0.999, 1e-8, weight_decay=weight_decay,
                scratch=scratch)
            np.testing.assert_array_equal(data_a, data_b)
            np.testing.assert_array_equal(first_a, first_b)
            np.testing.assert_array_equal(second_a, second_b)

    def test_fused_kernels_do_not_mutate_grad(self):
        fused = Numpy32Backend()
        data = np.ones((3,), dtype=np.float32)
        grad = np.full((3,), 0.5, dtype=np.float32)
        grad_before = grad.copy()
        fused.sgd_update(data, grad, 0.1, weight_decay=0.01)
        np.testing.assert_array_equal(grad, grad_before)
        first = np.zeros_like(data); second = np.zeros_like(data)
        fused.adam_update(data, grad, 1, first, second, 0.001, 0.9, 0.999,
                          1e-8, weight_decay=0.01)
        np.testing.assert_array_equal(grad, grad_before)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_optimizer_state_dtype_follows_backend(self, backend):
        with use_backend(backend):
            parameter = Tensor(np.ones((4, 2)), requires_grad=True)
            parameter.grad = np.full((4, 2), 0.1, dtype=parameter.dtype)
            optimizer = Adam([parameter])
            optimizer.step()
        expected = get_backend(backend).dtype
        assert parameter.data.dtype == expected
        state = optimizer.state_dict()
        assert state["first_moment"][0].dtype == expected

    def test_optimizer_captures_construction_backend(self):
        with use_backend("numpy32"):
            parameter = Tensor(np.ones(3), requires_grad=True)
            optimizer = SGD([parameter], lr=0.1)
        assert optimizer.backend.name == "numpy32"
        # Stepping outside the context still uses the fused kernels.
        parameter.grad = np.full(3, 0.5, dtype=np.float32)
        before = parameter.data
        optimizer.step()
        assert parameter.data is before  # in-place update
        assert parameter.data.dtype == np.float32


# ----------------------------------------------------------------------
# Gradient checks: the full op set under both backends (dtype-aware
# tolerances; inputs keep a margin from relu/clip kinks)
# ----------------------------------------------------------------------
def _values(backend, shape, rng, low=0.2, high=1.7):
    """Smooth, kink-free values with random signs in backend dtype."""
    magnitude = rng.uniform(low, high, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return get_backend(backend).asarray(magnitude * signs)


OPS = {
    "add": lambda a, b: (a + b).sum(),
    "sub": lambda a, b: (a - b).sum(),
    "mul": lambda a, b: (a * b).sum(),
    "div": lambda a, b: (a / b).sum(),
    "neg_pow": lambda a, b: ((-a) ** 2.0).sum(),
    "matmul": lambda a, b: a.matmul(b.T).sum(),
    "transpose": lambda a, b: (a.T * b.T).sum(),
    "swapaxes": lambda a, b: (a.swapaxes(0, 1) * b.swapaxes(0, 1)).sum(),
    "reshape": lambda a, b: (a.reshape(-1) * b.reshape(-1)).sum(),
    "sum_axis": lambda a, b: (a.sum(axis=1) * b.sum(axis=1)).sum(),
    "mean": lambda a, b: (a.mean(axis=1) * b.mean(axis=1)).sum(),
    "exp": lambda a, b: (a * 0.3).exp().sum(),
    "log": lambda a, b: ((a * a) + 0.5).log().sum(),
    "sigmoid": lambda a, b: a.sigmoid().sum(),
    "tanh": lambda a, b: a.tanh().sum(),
    "relu": lambda a, b: a.relu().sum(),
    "leaky_relu": lambda a, b: a.leaky_relu(0.2).sum(),
    "clip": lambda a, b: a.clip(-1.2, 1.2).sum(),
    "index_rows": lambda a, b: a.index_rows(np.array([0, 2, 2])).sum(),
    "getitem": lambda a, b: a[np.array([1, 1, 0])].sum(),
    "concat": lambda a, b: Tensor.concat([a, b], axis=1).sigmoid().sum(),
    "stack": lambda a, b: Tensor.stack([a, b], axis=0).tanh().sum(),
}


class TestGradCheckBothBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_op_gradients(self, backend, op):
        rng = np.random.default_rng(hash(op) % (2 ** 32))
        with use_backend(backend):
            a = Tensor(_values(backend, (3, 4), rng), requires_grad=True)
            b = Tensor(_values(backend, (3, 4), rng), requires_grad=True)
            assert check_gradients(lambda: OPS[op](a, b), [a, b])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_contiguous_parameter_gradients(self, backend):
        # The zero-copy constructor can wrap views; finite differences must
        # perturb the parameter's real storage, not a ravel() copy.
        rng = np.random.default_rng(47)
        with use_backend(backend):
            base = _values(backend, (4, 3), rng)
            a = Tensor(base.T, requires_grad=True)  # non-contiguous view
            assert not a.data.flags["C_CONTIGUOUS"]
            assert check_gradients(lambda: (a * a).sum(), [a])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_matmul_gradients(self, backend):
        rng = np.random.default_rng(17)
        with use_backend(backend):
            a = Tensor(_values(backend, (2, 3, 4), rng), requires_grad=True)
            b = Tensor(_values(backend, (2, 4, 2), rng), requires_grad=True)
            assert check_gradients(lambda: a.matmul(b).sum(), [a, b])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sparse_matmul_gradients(self, backend):
        rng = np.random.default_rng(23)
        matrix = sp.random(5, 5, density=0.5, random_state=7, format="csr")
        with use_backend(backend):
            matrix = matrix.astype(active_backend().dtype)
            a = Tensor(_values(backend, (5, 3), rng), requires_grad=True)
            assert check_gradients(lambda: a.sparse_matmul(matrix).sum(), [a])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bce_gradients(self, backend):
        rng = np.random.default_rng(31)
        with use_backend(backend):
            logits = Tensor(_values(backend, (6,), rng), requires_grad=True)
            targets = get_backend(backend).asarray(rng.uniform(0.1, 0.9, size=6))
            assert check_gradients(
                lambda: F.binary_cross_entropy(logits.sigmoid(), targets),
                [logits],
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bce_per_row_gradients(self, backend):
        rng = np.random.default_rng(37)
        with use_backend(backend):
            logits = Tensor(_values(backend, (2, 5), rng), requires_grad=True)
            targets = get_backend(backend).asarray(
                rng.uniform(0.1, 0.9, size=(2, 5))
            )
            assert check_gradients(
                lambda: F.binary_cross_entropy_per_row(
                    logits.sigmoid(), targets
                ).sum(),
                [logits],
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bpr_gradients(self, backend):
        rng = np.random.default_rng(41)
        with use_backend(backend):
            positive = Tensor(_values(backend, (5,), rng), requires_grad=True)
            negative = Tensor(_values(backend, (5,), rng), requires_grad=True)
            assert check_gradients(
                lambda: F.bpr_loss(positive, negative), [positive, negative]
            )

    def test_concat_stack_raw_operands_follow_sibling_dtype(self):
        with use_backend("numpy32"):
            anchor = Tensor(np.ones((2, 3)), requires_grad=True)
        # Raw arrays/lists joined with a float32 tensor outside any backend
        # context must not promote the result to the ambient float64.
        raw = np.zeros((2, 3))
        assert Tensor.concat([anchor, raw], axis=1).dtype == np.float32
        assert Tensor.stack([anchor, raw], axis=0).dtype == np.float32

    def test_loss_targets_follow_prediction_dtype(self):
        with use_backend("numpy32"):
            logits = Tensor(np.zeros(4), requires_grad=True)
        # Outside any backend context, float64 targets must not promote a
        # float32 model's loss graph (same weak-operand rule as binary ops).
        loss = F.binary_cross_entropy(logits.sigmoid(), np.ones(4))
        assert loss.dtype == np.float32
        assert F.mse_loss(logits.sigmoid(), np.ones(4)).dtype == np.float32

    def test_float32_bce_stays_finite_at_extremes(self):
        with use_backend("numpy32"):
            # sigmoid saturates to exactly 1.0 in float32 for large logits;
            # the dtype-aware clip keeps both log terms finite.
            logits = Tensor(np.array([40.0, -40.0]), requires_grad=True)
            loss = F.binary_cross_entropy(logits.sigmoid(), np.array([0.0, 1.0]))
            assert np.isfinite(loss.item())
            loss.backward()
            assert np.all(np.isfinite(logits.grad))


# ----------------------------------------------------------------------
# Spec and end-to-end plumbing
# ----------------------------------------------------------------------
class TestSpecPlumbing:
    def test_spec_records_backend_and_round_trips(self):
        spec = small_spec(backend="numpy32")
        assert spec.backend == "numpy32"
        assert spec.to_dict()["backend"] == "numpy32"
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.replace(backend="numpy").backend == "numpy"

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown tensor backend"):
            small_spec(backend="tpu")

    def test_spec_default_backend_follows_session(self):
        assert small_spec().backend == active_backend().name
        with use_backend("numpy32"):
            assert small_spec().backend == "numpy32"

    @pytest.mark.parametrize("trainer", ["ptf", "fcf", "fedmf", "metamf", "centralized"])
    def test_numpy32_builds_float32_models(self, trainer):
        adapter = get_trainer(trainer)(
            small_spec(trainer=trainer, backend="numpy32"), small_dataset()
        )
        dtypes = {
            value.dtype
            for value in adapter.serving_model().state_dict().values()
            if value.dtype.kind == "f"
        }
        assert dtypes == {np.dtype(np.float32)}

    def test_direct_drivers_honor_config_backend(self):
        # Drivers constructed without the adapter must still honor the
        # configured backend (model dtype and the serial fit loop).
        from repro.core.protocol import PTFFedRec
        from repro.federated.fedmf import FedMF

        dataset = small_dataset()
        system = FedMF(dataset, ExperimentSpec.from_flat(
            trainer="fedmf", backend="numpy32", rounds=1, client_local_epochs=2,
        ))
        assert next(iter(system.model.parameters())).dtype == np.float32
        system.fit(rounds=1)
        assert next(iter(system.model.parameters())).dtype == np.float32

        ptf = PTFFedRec(dataset, small_spec(backend="numpy32", rounds=1))
        assert next(iter(ptf.server.model.parameters())).dtype == np.float32
        assert next(iter(ptf.clients[0].model.parameters())).dtype == np.float32
        ptf.fit(rounds=1)
        assert next(iter(ptf.clients[0].model.parameters())).dtype == np.float32

    def test_numpy32_metrics_close_to_reference(self):
        dataset = small_dataset()
        reference = repro.run(small_spec(backend="numpy"), dataset)
        fast = repro.run(small_spec(backend="numpy32"), dataset)
        assert fast.final.ndcg == pytest.approx(reference.final.ndcg, abs=5e-3)
        assert fast.final.hit_rate == pytest.approx(reference.final.hit_rate, abs=5e-3)

    def test_numpy32_partial_participation_bit_identical(self):
        # client_fraction < 1 leaves cohort members with different Adam
        # step counts, exercising StackedAdam's per-client bias-correction
        # path — whose corrections must carry the float32 dtype to avoid
        # double rounding against the serial fused kernel.
        dataset = small_dataset()
        client_states = []
        for mode in ("serial", "batched"):
            adapter = get_trainer("ptf")(
                small_spec(backend="numpy32", scheduler=mode, rounds=3,
                           client_fraction=0.5), dataset
            )
            adapter.fit()
            client_states.append({
                user: client.model.state_dict()
                for user, client in adapter.system.clients.items()
            })
        serial, batched = client_states
        assert serial.keys() == batched.keys()
        for user in serial:
            for key in serial[user]:
                np.testing.assert_array_equal(serial[user][key], batched[user][key])

    @pytest.mark.parametrize("scheduler", ["serial", "batched"])
    def test_numpy32_schedulers_bit_identical(self, scheduler):
        dataset = small_dataset()
        results = []
        for mode in ("serial", scheduler):
            adapter = get_trainer("ptf")(
                small_spec(backend="numpy32", scheduler=mode), dataset
            )
            adapter.fit()
            results.append(adapter.serving_model().state_dict())
        for key in results[0]:
            np.testing.assert_array_equal(results[0][key], results[1][key])


class TestCheckpointBackend:
    def test_manifest_records_backend_and_resumes(self, tmp_path):
        dataset = small_dataset()
        spec = small_spec(backend="numpy32", rounds=4)
        full = repro.run(spec, dataset)

        half = get_trainer("ptf")(spec.replace(rounds=2), dataset)
        half.fit()
        path = save_checkpoint(tmp_path / "ckpt", half, spec=spec.replace(rounds=2))

        checkpoint = load_checkpoint(path)
        assert checkpoint.backend == "numpy32"
        assert checkpoint.dtype == "float32"
        assert checkpoint.spec.backend == "numpy32"

        resumed = repro.run(spec, dataset, resume_from=path)
        assert resumed.final.ndcg == full.final.ndcg
        assert resumed.final.hit_rate == full.final.hit_rate

        restored = checkpoint.restore(dataset)
        dtypes = {
            value.dtype
            for value in restored.serving_model().state_dict().values()
            if value.dtype.kind == "f"
        }
        assert dtypes == {np.dtype(np.float32)}

    def test_legacy_manifest_defaults_to_reference_backend(self, tmp_path):
        # A pre-backend checkpoint (no backend keys anywhere) must load as
        # the float64 reference even when the ambient session backend is
        # numpy32 — never reinterpreted at the session's precision.
        import json

        dataset = small_dataset()
        spec = small_spec(rounds=2, backend="numpy")
        adapter = get_trainer("ptf")(spec, dataset)
        adapter.fit()
        path = save_checkpoint(tmp_path / "ckpt", adapter, spec=spec)

        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["backend"], manifest["dtype"], manifest["spec"]["backend"]
        manifest["schema_version"] = 1  # what the pre-backend writer stamped
        manifest_path.write_text(json.dumps(manifest))

        with use_backend("numpy32"):
            checkpoint = load_checkpoint(path)
            assert checkpoint.backend == "numpy"
            assert checkpoint.dtype == "float64"
            assert checkpoint.spec.backend == "numpy"
            restored = checkpoint.restore(dataset)
        dtypes = {
            value.dtype
            for value in restored.serving_model().state_dict().values()
            if value.dtype.kind == "f"
        }
        assert dtypes == {np.dtype(np.float64)}

    def test_loaded_optimizer_state_does_not_alias_source(self):
        # The fused in-place kernels mutate moment buffers directly; a
        # loaded state dict must therefore be copied in, or further
        # training would corrupt the caller's tree (e.g. Checkpoint.state).
        with use_backend("numpy32"):
            parameter = Tensor(np.ones(3), requires_grad=True)
            parameter.grad = np.full(3, 0.5, dtype=np.float32)
            optimizer = Adam([parameter])
            optimizer.step()
            snapshot = optimizer.state_dict()
            frozen = {k: {i: v.copy() for i, v in m.items()} if k != "steps" else dict(m)
                      for k, m in snapshot.items()}
            optimizer.load_state_dict(snapshot)
            optimizer.step()
        for key in ("first_moment", "second_moment"):
            np.testing.assert_array_equal(snapshot[key][0], frozen[key][0])

    def test_restore_under_different_backend_rejected(self, tmp_path):
        dataset = small_dataset()
        spec = small_spec(rounds=2, backend="numpy")
        adapter = get_trainer("ptf")(spec, dataset)
        adapter.fit()
        path = save_checkpoint(tmp_path / "ckpt", adapter, spec=spec)
        checkpoint = load_checkpoint(path)
        with pytest.raises(ValueError, match="tensor.*backend"):
            checkpoint.restore(dataset, spec=spec.replace(backend="numpy32"))

    def test_optimizer_pickles_without_scratch(self):
        import pickle

        with use_backend("numpy32"):
            parameter = Tensor(np.ones(3), requires_grad=True)
            parameter.grad = np.full(3, 0.5, dtype=np.float32)
            optimizer = Adam([parameter])
            optimizer.step()
        assert optimizer._scratch  # populated by the fused step
        clone = pickle.loads(pickle.dumps(optimizer))
        assert clone._scratch == {}  # rebuilt lazily on the next step
        assert clone.backend.name == "numpy32"

    def test_resume_under_different_backend_rejected(self, tmp_path):
        dataset = small_dataset()
        spec = small_spec(backend="numpy32", rounds=3)
        half = get_trainer("ptf")(spec.replace(rounds=2), dataset)
        half.fit()
        path = save_checkpoint(tmp_path / "ckpt", half, spec=spec.replace(rounds=2))
        with pytest.raises(ValueError, match="resume spec does not match"):
            repro.run(spec.replace(backend="numpy"), dataset, resume_from=path)
