"""First-order optimizers for the NumPy autograd substrate.

The paper trains every model with Adam (learning rate 0.001); SGD with
optional momentum is provided as well because the federated baselines
(FCF-style local updates) historically use it and the ablation benches
compare both.

The per-parameter update arithmetic itself lives in the active tensor
backend (:mod:`repro.tensor.backend`): the default ``"numpy"`` backend
reproduces the historical out-of-place float64 updates bit for bit, while
``"numpy32"`` runs fused in-place float32 kernels over reusable scratch
buffers.  An optimizer captures the backend active at construction, so a
model built under ``use_backend("numpy32")`` keeps its fused kernels even
when ``step()`` later runs outside the context.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

# repro: disable=backend-purity -- optimizer state is raw ndarray slots updated through backend kernels
import numpy as np

from repro.tensor import Tensor
from repro.tensor.backend import Backend, get_backend


def _load_indexed_arrays(target: Dict[int, np.ndarray], source: Dict, count: int) -> None:
    """Replace ``target`` with index-keyed arrays from a state mapping.

    Arrays are *copied* in: the in-place fused kernels of the ``numpy32``
    backend mutate the optimizer's moment/velocity buffers directly, so
    aliasing the caller's state dict would corrupt it (e.g. a loaded
    ``Checkpoint.state`` tree after the next training round).
    """
    target.clear()
    for key, value in source.items():
        index = int(key)
        if not 0 <= index < count:
            raise IndexError(f"optimizer state index {index} out of range [0, {count})")
        target[index] = np.array(value)


class Optimizer:
    """Base class holding a parameter list and common bookkeeping.

    ``backend`` selects the update kernels (a name, a
    :class:`~repro.tensor.backend.Backend`, or ``None`` for the backend
    active at construction time).  In-place backends reuse per-parameter
    scratch buffers across steps, so no update allocates parameter-sized
    temporaries.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 backend: Union[str, Backend, None] = None):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.backend = get_backend(backend)
        self._scratch: Dict[tuple, tuple] = {}

    def _scratch_for(self, parameter: Tensor) -> Optional[tuple]:
        """Reusable scratch pair for in-place kernels (``None`` for reference).

        Keyed by ``(shape, dtype)`` rather than parameter index: ``step()``
        updates parameters sequentially, so same-shaped parameters can
        share one pair — halving resident scratch for models whose big
        tables repeat a shape (and scratch contents never survive a step).
        """
        if not self.backend.inplace:
            return None
        key = (parameter.data.shape, parameter.data.dtype)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = self._scratch[key] = (
                np.empty_like(parameter.data), np.empty_like(parameter.data)
            )
        return scratch

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the scratch buffers (content-free; lazily rebuilt).

        Keeps pickled client objects lean: the scratch is pure
        workspace, so dropping it changes no result.
        """
        state = self.__dict__.copy()
        state["_scratch"] = {}
        return state

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Index-keyed snapshot of the optimizer's mutable state.

        Stateless optimizers return an empty dict; subclasses with
        per-parameter state override this (and :meth:`load_state_dict`).
        Keys are parameter *indices* in the managed list — the same
        pickle-stable keying the engine's slot accessors use — so the
        snapshot survives serialization and process boundaries.
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no state, got keys {sorted(state)}"
            )


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    Per-parameter state is keyed by the parameter's *index* in the managed
    list (not ``id()``), so optimizer state survives pickling and copying
    of the clients that own it.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        backend: Union[str, Backend, None] = None,
    ):
        super().__init__(parameters, lr, backend=backend)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        kernel = self.backend.sgd_update
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            parameter.data, velocity = kernel(
                parameter.data,
                parameter.grad,
                self.lr,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
                velocity=self._velocity.get(index) if self.momentum else None,
                scratch=self._scratch_for(parameter),
            )
            if self.momentum:
                self._velocity[index] = velocity

    def state_dict(self) -> Dict[str, Any]:
        """Momentum velocities keyed by parameter index."""
        return {"velocity": {index: v.copy() for index, v in self._velocity.items()}}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore velocities from a :meth:`state_dict` snapshot."""
        _load_indexed_arrays(
            self._velocity, state.get("velocity", {}), len(self.parameters)
        )


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2014) — the paper's optimizer.

    Per-parameter state (step count and both moment estimates) is keyed by
    the parameter's index in the managed list, which keeps the state valid
    across pickling and lets :mod:`repro.engine` stack the state of many
    per-client optimizers into contiguous arrays (see
    :meth:`slot_state` / :meth:`load_slot_state`).
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        backend: Union[str, Backend, None] = None,
    ):
        super().__init__(parameters, lr, backend=backend)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._steps: Dict[int, int] = {}
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        kernel = self.backend.adam_update
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            step = self._steps.get(index, 0) + 1
            first = self._first_moment.get(index)
            second = self._second_moment.get(index)
            if first is None:
                first = np.zeros_like(parameter.data)
                second = np.zeros_like(parameter.data)
            parameter.data, first, second = kernel(
                parameter.data,
                parameter.grad,
                step,
                first,
                second,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                weight_decay=self.weight_decay,
                scratch=self._scratch_for(parameter),
            )
            self._steps[index] = step
            self._first_moment[index] = first
            self._second_moment[index] = second

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Step counts and both moment estimates, keyed by parameter index."""
        return {
            "steps": {index: int(step) for index, step in self._steps.items()},
            "first_moment": {index: m.copy() for index, m in self._first_moment.items()},
            "second_moment": {index: m.copy() for index, m in self._second_moment.items()},
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (bitwise: the next
        :meth:`step` continues exactly where the saved optimizer left off)."""
        count = len(self.parameters)
        self._steps.clear()
        for key, step in state.get("steps", {}).items():
            index = int(key)
            if not 0 <= index < count:
                raise IndexError(f"optimizer state index {index} out of range [0, {count})")
            self._steps[index] = int(step)
        _load_indexed_arrays(self._first_moment, state.get("first_moment", {}), count)
        _load_indexed_arrays(self._second_moment, state.get("second_moment", {}), count)

    # ------------------------------------------------------------------
    # State transfer (used by repro.engine to stack per-client optimizers)
    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        """Whether any parameter has been stepped yet."""
        return bool(self._steps)

    def slot_state(self, index: int):
        """Return ``(step, first_moment, second_moment)`` for parameter ``index``.

        Fresh (never-stepped) slots report ``(0, zeros, zeros)`` so callers
        can stack heterogeneous client optimizers uniformly.
        """
        parameter = self.parameters[index]
        step = self._steps.get(index, 0)
        first = self._first_moment.get(index)
        second = self._second_moment.get(index)
        if first is None:
            first = np.zeros_like(parameter.data)
            second = np.zeros_like(parameter.data)
        return step, first, second

    def load_slot_state(self, index: int, step: int, first: np.ndarray,
                        second: np.ndarray) -> None:
        """Install ``(step, first_moment, second_moment)`` for parameter ``index``."""
        if not 0 <= index < len(self.parameters):
            raise IndexError(f"parameter index {index} out of range")
        self._steps[index] = int(step)
        self._first_moment[index] = np.asarray(first)
        self._second_moment[index] = np.asarray(second)
