"""A small reverse-mode autodiff engine over NumPy arrays.

The engine records a dynamic computation graph: every operation returns a
new :class:`Tensor` that remembers its parent tensors and a closure which
propagates the output gradient back to them.  Calling
:meth:`Tensor.backward` performs a topological sort of the recorded graph
and accumulates gradients into every tensor created with
``requires_grad=True``.

Only the operations required by the recommendation models in this
repository are implemented, but each one supports full NumPy broadcasting
and is covered by finite-difference gradient checks in the test suite.

Precision policy
----------------
The floating dtype of new tensors is owned by the active
:class:`~repro.tensor.backend.Backend` (float64 under the default
``"numpy"`` backend, float32 under ``"numpy32"``).  Operations *preserve*
their operands' dtype — only construction from foreign data consults the
backend — so a float32 model keeps computing in float32 even when no
backend is explicitly activated around inference.

Gradient recording is context-local (:func:`no_grad` in one thread never
disables recording in another), and when recording is off each operation
skips graph bookkeeping entirely: no parent links, no backward closure,
just the raw NumPy computation.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.backend import active_backend
from repro.utils.rng import seeded_rng

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Context-local so that ``no_grad`` composes with threads: an inference
# thread in the serving tier must not switch off recording for a training
# thread sharing the process (a plain module global did exactly that).
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (context-local)."""
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used for inference passes (e.g. producing the prediction scores that
    clients upload in PTF-FedRec) where building a graph would waste time
    and memory.  Inside the context every operation takes the fast path:
    it computes its NumPy result and returns a bare tensor with no parents
    and no backward closure.

    The flag lives in a :class:`contextvars.ContextVar`, so the context
    only affects the current thread (and tasks spawned from it) —
    concurrent training in another thread keeps recording.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    """Normalize ``data`` to an ndarray of ``dtype`` (backend default).

    **Aliasing contract** (same as :meth:`Backend.asarray`, to which the
    default branch delegates): an ndarray already carrying the target
    dtype is returned *uncopied* — the caller's array and the tensor share
    storage, so in-place writes through either alias are visible through
    both.  The optimizers rely on this (they update ``Tensor.data`` that
    model code keeps referencing); callers that need isolation pass
    ``copy=True`` to the :class:`Tensor` constructor.  A dtype mismatch
    always allocates (``astype`` copies).
    """
    if dtype is None:
        # Delegate so a registered custom backend's asarray override (a
        # pinned-memory or device backend, say) governs construction too.
        return active_backend().asarray(data)
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _coerce(other, like: np.ndarray) -> "Tensor":
    """Wrap a non-Tensor binary-op operand in the *tensor's own* dtype.

    Scalars and foreign arrays follow the tensor they combine with (the way
    NEP 50 treats weak scalars), not the ambient backend — so ``x * 2.0``
    on a float32 model stays float32 even outside ``use_backend``.  Under
    the default backend everything is float64 either way, so the reference
    path is unchanged bit for bit.
    """
    if isinstance(other, Tensor):
        return other
    return Tensor._wrap(_as_array(other, dtype=like.dtype))


def _recording(*parents: "Tensor") -> bool:
    """Whether an op over ``parents`` must record graph bookkeeping."""
    if not _GRAD_ENABLED.get():
        return False
    for parent in parents:
        if parent.requires_grad or parent._backward is not None:
            return True
    return False


class Tensor:
    """A NumPy array with an optional gradient and autodiff history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        copy: bool = False,
    ):
        """Wrap ``data`` in a tensor of the active backend's dtype.

        By default an ndarray that already carries the backend dtype is
        **shared, not copied** (see :func:`_as_array`); ``copy=True``
        forces the tensor to own private storage regardless.
        """
        array = _as_array(data)
        if copy and array is data:
            array = array.copy()
        self.data = array
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(data: np.ndarray) -> "Tensor":
        """Wrap an op result as-is: no dtype normalization, no copy.

        Internal fast constructor for operation outputs — their dtype is
        already determined by the operands (which is what keeps float32
        models in float32 without an active backend), so routing them
        through ``__init__`` would at best be a wasted check and at worst
        an unwanted upcast.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = None
        return out

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(shape, rng: Optional[np.random.Generator] = None, scale: float = 1.0,
              requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else seeded_rng()
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor._wrap(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # First contribution: copy instead of zeros-then-add (saves a
            # full allocation + pass on every parameter every step).
            self.grad = np.array(grad)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad and self._backward is None:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        # ``visit`` refers to itself through its closure cell; unbinding it
        # breaks that cycle, so the graph it reaches is freed on return
        # rather than whenever the cyclic collector next runs.
        del visit

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]) -> "Tensor":
        """Attach graph bookkeeping to an op result.

        Callers guard with :func:`_recording` first — when recording is off
        they return ``Tensor._wrap(data)`` directly and never even build
        the backward closure.
        """
        out = Tensor._wrap(data)
        out._parents = parents
        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = _coerce(other, self.data)
        data = self.data + other.data
        if not _recording(self, other):
            return Tensor._wrap(data)

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = _coerce(other, self.data)
        data = self.data - other.data
        if not _recording(self, other):
            return Tensor._wrap(data)

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _coerce(other, self.data) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = _coerce(other, self.data)
        data = self.data * other.data
        if not _recording(self, other):
            return Tensor._wrap(data)

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = _coerce(other, self.data)
        data = self.data / other.data
        if not _recording(self, other):
            return Tensor._wrap(data)

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _coerce(other, self.data) / self

    def __neg__(self) -> "Tensor":
        data = -self.data
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (-grad,)

        return Tensor._make(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product, including stacked (batched) operands.

        Operands with ``ndim >= 3`` follow NumPy's ``matmul`` semantics: the
        product is computed per leading-axis slice, which is how
        :mod:`repro.engine` runs one cohort of per-client models as a single
        stacked operation.
        """
        other = _coerce(other, self.data)
        data = self.data @ other.data
        if not _recording(self, other):
            return Tensor._wrap(data)

        def backward(grad):
            if self.data.ndim >= 2 and other.data.ndim >= 2:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
            else:
                grad_self = grad @ other.data.T if other.data.ndim == 2 else np.outer(grad, other.data)
                grad_other = self.data.T @ grad if self.data.ndim == 2 else np.outer(self.data, grad)
            return (
                _unbroadcast(grad_self, self.shape),
                _unbroadcast(grad_other, other.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def transpose(self) -> "Tensor":
        data = self.data.T
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad.T,)

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors NumPy naming
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes (a view-level transpose for stacked tensors).

        The stacked execution engine uses ``weights.swapaxes(-1, -2)`` where
        2-D code would write ``weights.T``, so a cohort of per-client linear
        layers multiplies as one batched ``matmul``.
        """
        data = self.data.swapaxes(axis1, axis2)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad.swapaxes(axis1, axis2),)

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis)
            return (np.broadcast_to(grad_arr, self.shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad / self.data,)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data)
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (grad * np.where(mask, 1.0, negative_slope),)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        if not _recording(self):
            return Tensor._wrap(data)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Indexing / gathering
    # ------------------------------------------------------------------
    def index_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows by integer index (embedding lookup).

        The backward pass scatter-adds the incoming gradient back to the
        selected rows, which is exactly the sparse update an embedding
        table receives.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            return (full,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape combinators
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_group(tensors: Iterable) -> List["Tensor"]:
        """Wrap a mixed tensor/array sequence for a shape combinator.

        Raw operands follow the dtype of the first actual tensor in the
        group (the same weak-operand rule as the binary ops); an all-raw
        group falls back to the active backend via the constructor.
        """
        tensors = list(tensors)
        reference = next((t.data for t in tensors if isinstance(t, Tensor)), None)
        if reference is None:
            return [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        return [t if isinstance(t, Tensor) else _coerce(t, reference) for t in tensors]

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = Tensor._coerce_group(tensors)
        data = np.concatenate([t.data for t in tensors], axis=axis)
        if not _recording(*tensors):
            return Tensor._wrap(data)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad):
            splits = np.cumsum(sizes)[:-1]
            pieces = np.split(grad, splits, axis=axis)
            return tuple(pieces)

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = Tensor._coerce_group(tensors)
        data = np.stack([t.data for t in tensors], axis=axis)
        if not _recording(*tensors):
            return Tensor._wrap(data)

        def backward(grad):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor._make(data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Sparse support
    # ------------------------------------------------------------------
    def sparse_matmul(self, matrix: sp.spmatrix) -> "Tensor":
        """Compute ``matrix @ self`` for a constant sparse ``matrix``.

        Used by the graph models (NGCF, LightGCN) to propagate embeddings
        over the normalized bipartite adjacency.  The sparse matrix is a
        constant of the dataset, so only the dense operand receives a
        gradient: ``d(matrix @ X)/dX = matrix^T``.
        """
        csr = matrix.tocsr()
        data = csr @ self.data
        if not _recording(self):
            return Tensor._wrap(data)

        def backward(grad):
            return (csr.T @ grad,)

        return Tensor._make(data, (self,), backward)
