"""Reverse-mode automatic differentiation on NumPy arrays.

This package is the lowest substrate of the reproduction.  The paper's
models are ordinarily implemented in PyTorch; because PyTorch is not
available in this environment, ``repro.tensor`` provides the minimal dense
and sparse tensor operations the recommendation models need, together with
reverse-mode autodiff so the models can be trained with gradient descent.

The public surface intentionally mirrors a small slice of the PyTorch API
(``Tensor``, ``no_grad``, functional ops) so that the model code in
:mod:`repro.models` reads like conventional deep-learning code.
"""

from repro.tensor.backend import (
    Backend,
    Numpy32Backend,
    NumpyBackend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.tensor.sparse import SparseDelta
from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor.gradcheck import check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "check_gradients",
    "SparseDelta",
    "Backend",
    "NumpyBackend",
    "Numpy32Backend",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
