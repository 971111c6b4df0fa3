"""Pluggable array backends: the precision/execution policy of the substrate.

Every raw array decision the tensor engine makes — which floating dtype new
tensors carry, and which kernel applies an optimizer update — is owned by a
:class:`Backend`.  Two backends ship with the repository:

``"numpy"`` (the default)
    Float64 compute with the original out-of-place update arithmetic.  This
    backend is the *reference*: results are bit-identical to the pre-backend
    substrate, and every equality guarantee in the repository (scheduler
    bit-identity, checkpoint resume, batched-evaluation equality) is stated
    against it.

``"numpy32"``
    Float32 compute with fused, in-place optimizer kernels.  Parameters,
    activations and gradients all carry float32, halving memory traffic
    through every hot loop (local training, stacked cohorts, full-ranking
    evaluation), and the SGD/momentum/Adam updates run in place over
    caller-provided scratch so no step allocates parameter-sized
    temporaries.  Results are *numerically close* to the reference, not
    bit-equal — the protocol payloads (uploads, dispersals, metrics) remain
    float64 at the boundaries, so only model-internal arithmetic changes
    precision.

The active backend is tracked in a :class:`contextvars.ContextVar`, so
``use_backend("numpy32")`` in one thread never changes what another thread
computes (the threaded serving tier relies on this).  The policy is
threaded through the stack by
:class:`~repro.experiments.spec.ExperimentSpec.backend`: the trainer
adapters activate the spec's backend around model construction, training
and evaluation, and checkpoints record it in their manifest so artifacts
stay self-describing.

Registering a custom backend follows the trainer-registry idiom:

>>> import numpy as np
>>> class MyBackend(NumpyBackend):
...     name = "numpy64-fused"
...     inplace = True
>>> _ = register_backend(MyBackend())
>>> get_backend("numpy64-fused").dtype == np.float64
True
>>> _ = _REGISTRY.pop("numpy64-fused")  # keep the doctest idempotent
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Optional, Tuple, Union

import numpy as np


class Backend:
    """One array-compute policy: a floating dtype plus optimizer kernels.

    Subclasses set :attr:`name`, :attr:`dtype` and :attr:`inplace` and may
    override the update kernels.  Kernels receive and return raw ndarrays
    (never :class:`~repro.tensor.tensor.Tensor` objects) so they compose
    with both the per-parameter optimizers in :mod:`repro.optim` and the
    stacked cohort optimizers in :mod:`repro.engine.batch`.

    ``inplace`` declares the aliasing contract of the kernels: an in-place
    backend mutates and returns the ``data`` argument (callers may rely on
    object identity), while the reference backend returns fresh arrays and
    never touches its inputs.
    """

    #: Registry key; also what ``ExperimentSpec.backend`` names.
    name: str = ""
    #: The floating dtype every new tensor is normalized to.
    dtype: np.dtype = np.dtype(np.float64)
    #: Whether the optimizer kernels mutate parameters in place.
    inplace: bool = False

    # ------------------------------------------------------------------
    # Array construction
    # ------------------------------------------------------------------
    def asarray(self, data) -> np.ndarray:
        """Normalize ``data`` to this backend's dtype (zero-copy on match).

        Mirrors the tensor constructor's aliasing contract: an ndarray
        already carrying :attr:`dtype` is returned *uncopied*.
        """
        if isinstance(data, np.ndarray):
            if data.dtype != self.dtype:
                return data.astype(self.dtype)
            return data
        return np.asarray(data, dtype=self.dtype)

    # ------------------------------------------------------------------
    # Optimizer kernels
    # ------------------------------------------------------------------
    def sgd_update(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        velocity: Optional[np.ndarray] = None,
        scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One SGD step; returns ``(new_data, new_velocity)``.

        The reference implementation reproduces the historical per-parameter
        arithmetic exactly (same operations, same order, out of place), so
        the default backend is bit-identical to the pre-backend optimizer.
        """
        if weight_decay:
            grad = grad + weight_decay * data
        if momentum:
            if velocity is None:
                velocity = np.zeros_like(data)
            velocity = momentum * velocity + grad
            grad = velocity
        return data - lr * grad, velocity

    def adam_update(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        step: int,
        first: np.ndarray,
        second: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        weight_decay: float = 0.0,
        scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One Adam step; returns ``(new_data, new_first, new_second)``.

        Bias corrections use Python-float ``beta ** step`` — the exact
        expression the serial optimizer has always evaluated, which the
        stacked cohort optimizer also matches term by term.
        """
        if weight_decay:
            grad = grad + weight_decay * data
        first = beta1 * first + (1.0 - beta1) * grad
        second = beta2 * second + (1.0 - beta2) * (grad * grad)
        first_hat = first / (1.0 - beta1 ** step)
        second_hat = second / (1.0 - beta2 ** step)
        return data - lr * first_hat / (np.sqrt(second_hat) + eps), first, second

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(name={self.name!r}, dtype={np.dtype(self.dtype).name})"


class NumpyBackend(Backend):
    """The reference backend: float64, out-of-place updates, bit-stable."""

    name = "numpy"
    dtype = np.dtype(np.float64)
    inplace = False


class Numpy32Backend(Backend):
    """Fast backend: float32 compute plus fused in-place optimizer kernels.

    The update kernels run entirely over the parameter's own storage and a
    caller-provided pair of scratch buffers, so a training step performs
    zero parameter-sized allocations (the optimizers hand the same pair
    back every step; a kernel called without scratch allocates its own).
    The arithmetic mirrors the reference kernels term by term
    (multiplication reordered only where IEEE-754 guarantees
    commutativity), which keeps the serial and stacked execution paths
    bit-identical *to each other* under this backend as well.
    """

    name = "numpy32"
    dtype = np.dtype(np.float32)
    inplace = True

    def sgd_update(self, data, grad, lr, momentum=0.0, weight_decay=0.0,
                   velocity=None, scratch=None):
        if scratch is None:
            scratch = (np.empty_like(data), np.empty_like(data))
        scratch_a, scratch_b = scratch
        if weight_decay:
            # weight_decay * data + grad (addition commutes bitwise with
            # the reference's grad + weight_decay * data); grad itself is
            # borrowed from the autograd graph and must not be mutated.
            np.multiply(data, weight_decay, out=scratch_b)
            scratch_b += grad
            grad = scratch_b
        if momentum:
            if velocity is None:
                velocity = np.zeros_like(data)
            velocity *= momentum
            velocity += grad
            grad = velocity
        np.multiply(grad, lr, out=scratch_a)
        data -= scratch_a
        return data, velocity

    def adam_update(self, data, grad, step, first, second, lr, beta1, beta2,
                    eps, weight_decay=0.0, scratch=None):
        if scratch is None:
            scratch = (np.empty_like(data), np.empty_like(data))
        scratch_a, scratch_b = scratch
        if weight_decay:
            np.multiply(data, weight_decay, out=scratch_b)
            scratch_b += grad
            grad = scratch_b  # holds the effective gradient until reused below
        # first = beta1 * first + (1 - beta1) * grad
        np.multiply(first, beta1, out=first)
        np.multiply(grad, 1.0 - beta1, out=scratch_a)
        first += scratch_a
        # second = beta2 * second + (1 - beta2) * grad^2
        np.multiply(second, beta2, out=second)
        np.multiply(grad, grad, out=scratch_a)
        scratch_a *= 1.0 - beta2
        second += scratch_a
        # data -= lr * (first / c1) / (sqrt(second / c2) + eps)
        np.divide(second, 1.0 - beta2 ** step, out=scratch_b)
        np.sqrt(scratch_b, out=scratch_b)
        scratch_b += eps
        np.divide(first, 1.0 - beta1 ** step, out=scratch_a)
        scratch_a *= lr
        scratch_a /= scratch_b
        data -= scratch_a
        return data, first, second


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Backend] = {}

DEFAULT_BACKEND = "numpy"


def register_backend(backend: Backend, overwrite: bool = False) -> Backend:
    """Register ``backend`` under its :attr:`~Backend.name`."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: Union[str, Backend, None]) -> Backend:
    """Resolve a backend by name (``None`` means the currently active one)."""
    if name is None:
        return active_backend()
    if isinstance(name, Backend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown tensor backend {name!r}; registered backends: {available_backends()}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str]) -> str:
    """Resolve a config-level backend field to a concrete registry name.

    ``None`` adopts the session's active backend; anything else must name
    a registered backend (validated eagerly so a typo fails at config
    construction, not mid-run).  :class:`~repro.experiments.ExperimentSpec`
    applies it to its ``backend`` field.
    """
    if name is None:
        return active_backend().name
    return get_backend(name).name


register_backend(NumpyBackend())
register_backend(Numpy32Backend())


# Two-level policy: a process-wide *session default* (what new threads and
# fresh contexts see) plus a context-local override stack managed by
# ``use_backend``.  Scoped overrides are context-local for the same reason
# the grad-recording flag is — threads must not leak temporary policy into
# each other — while ``set_backend`` deliberately changes the default for
# the whole process (e.g. a CI leg exporting REPRO_BACKEND=numpy32).
_SESSION_DEFAULT: Backend = _REGISTRY[DEFAULT_BACKEND]
_ACTIVE_BACKEND: contextvars.ContextVar[Optional[Backend]] = contextvars.ContextVar(
    "repro_tensor_backend", default=None
)


def active_backend() -> Backend:
    """The backend new tensors and optimizer steps currently use."""
    backend = _ACTIVE_BACKEND.get()
    return backend if backend is not None else _SESSION_DEFAULT


def set_backend(name: Union[str, Backend]) -> Backend:
    """Set the process-wide session default backend.

    Affects every context and thread that has no scoped
    :func:`use_backend` override active.
    """
    global _SESSION_DEFAULT
    _SESSION_DEFAULT = get_backend(name)
    return _SESSION_DEFAULT


@contextlib.contextmanager
def use_backend(name: Union[str, Backend, None]):
    """Context manager activating a backend for the enclosed block.

    ``None`` is a no-op pass-through (callers can thread an optional policy
    without branching).  Nesting restores the previous backend on exit.
    """
    if name is None:
        yield active_backend()
        return
    backend = get_backend(name)
    token = _ACTIVE_BACKEND.set(backend)
    try:
        yield backend
    finally:
        _ACTIVE_BACKEND.reset(token)
