"""Stacked (vectorized) execution of a cohort of per-client models.

The serial reference path trains every selected client with its own Python
fit loop: tiny autograd graphs over ``(batch,)``-shaped arrays, one client
at a time.  This module stacks a whole cohort into ``(clients, ...)``
arrays so one round of local training runs as a handful of batched tensor
operations.

Bit-identical by construction
-----------------------------
The stacked path reproduces the serial path *exactly* (same bits, not just
close values) because every per-client computation is independent and the
stacked operations apply the identical elementwise/per-slice arithmetic:

* elementwise ops, ``clip``/``log``/``sigmoid``/``relu`` act per element;
* stacked ``matmul`` over ``(C, m, n) @ (C, n, k)`` computes each slice
  with the same GEMM as the 2-D serial call;
* reductions run along each client's own axis, preserving NumPy's
  pairwise-summation order within the slice;
* gradient scatter (``np.add.at``) iterates row-major, so each client's
  duplicate indices accumulate in the serial order;
* :class:`StackedAdam` keeps a *per-client* step counter and computes the
  bias corrections with the same Python-float ``beta ** step`` the serial
  :class:`repro.optim.Adam` uses.

Sampling (negative draws, shuffles) stays per-client and consumes each
client's dedicated RNG stream in the serial call order — that is what a
:class:`ClientTrainingPlan` materializes — so randomness never depends on
execution strategy.

The stacked machinery is backend-agnostic by construction: stacked
parameters, optimizer moments and scratch buffers inherit their dtype
from the client models (``np.stack`` / ``zeros_like`` / ``empty_like``),
so a cohort of float32 clients trains as one float32 cohort and the
serial-vs-stacked bit-identity holds under the ``numpy32`` backend too
(asserted in ``tests/test_tensor_backend.py``).

Architectures without a stacked implementation fall back to the serial
path (see :class:`repro.engine.spec.EngineSpec`); :func:`stack_models`
currently covers NeuMF, matrix factorization and MetaMF — every client
model the paper's protocols train.

Row-compact item tables
-----------------------
A FedAvg client reads and writes only the item rows its plan names, yet
the global item table has a row per catalogue item.  Given ``item_rows``
(each client's :meth:`ClientTrainingPlan.touched_items`),
:func:`stack_models` stacks those rows alone, zero-padded to
``(C, max touched rows, dim)``, and :meth:`ClientTrainingPlan.localized`
renumbers the plan's items into them.  Still bit-identical: padding rows
are never gathered, reductions run over batch axes (never over table
rows), and plain SGD leaves a zero-gradient row unchanged
(``x - lr * 0.0 == x``), so every touched row sees the serial arithmetic.
Adam moves zero-gradient rows through its moments, so PTF clients keep
whole tables.

Plans stack only when their batch shapes line up, which
:attr:`ClientTrainingPlan.signature` fingerprints:

>>> import numpy as np
>>> batch = (np.array([3, 1, 4]), np.array([1.0, 0.0, 0.0]))
>>> plan = ClientTrainingPlan(user_id=0, epochs=[[batch, batch]])
>>> plan.signature
((3, 3),)
>>> plan.num_batches
2

A row-compact stack renumbers the plan's items into its touched rows:

>>> touched, local = plan.localized()
>>> touched.tolist(), local.epochs[0][0][0].tolist()
([1, 3, 4], [1, 0, 2])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# repro: disable=backend-purity -- cohort stacking/index plumbing; stacked math runs on Tensor/Backend
import numpy as np

from repro.nn.module import Parameter
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor.functional import binary_cross_entropy_per_row


@dataclass
class ClientTrainingPlan:
    """One client's local-training work for a round, fully materialized.

    ``epochs`` holds, per local epoch, the ``(items, labels)`` batches the
    client's sampler produced — drawn from the client's own RNG in the
    exact order the serial fit loop would have drawn them.  Materializing
    the plan up front is what lets the engine regroup work across clients
    without perturbing any random stream (model training itself consumes
    no randomness).
    """

    user_id: int
    epochs: List[List[Tuple[np.ndarray, np.ndarray]]]

    @property
    def signature(self) -> Tuple[Tuple[int, ...], ...]:
        """Batch-shape fingerprint; plans stack only with equal signatures."""
        return tuple(
            tuple(len(items) for items, _ in epoch) for epoch in self.epochs
        )

    @property
    def num_batches(self) -> int:
        return sum(len(epoch) for epoch in self.epochs)

    def touched_items(self) -> np.ndarray:
        """Sorted unique item ids across every batch of the plan.

        The sparse payload path uses this as the rows-touched set of the
        client's item-table delta: rows outside it receive exactly zero
        gradient during local training, so their delta is bitwise ``+0.0``
        and may be skipped without changing any aggregate.
        """
        arrays = [items for epoch in self.epochs for items, _ in epoch]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays)).astype(np.int64, copy=False)

    def localized(self) -> Tuple[np.ndarray, "ClientTrainingPlan"]:
        """The touched item ids, and this plan with items renumbered into them.

        Item ``touched[k]`` becomes local index ``k``, the row it occupies
        in a row-compact stacked table (see :func:`stack_models`).
        """
        touched = self.touched_items()
        epochs = [[(np.searchsorted(touched, items), labels) for items, labels in epoch]
                  for epoch in self.epochs]
        return touched, ClientTrainingPlan(self.user_id, epochs)


# ----------------------------------------------------------------------
# Stacked building blocks
# ----------------------------------------------------------------------
class StackedEmbedding:
    """``C`` independent embedding tables as one ``(C, rows, dim)`` parameter.

    ``kind`` is the stacking kind of the weight (see
    :class:`_StackedModelBase`): its rows are each client's user row, its
    touched item rows, or the whole table.

    Tracks per-slice update-count *increments* (not absolute counts) so the
    caller can either write them back per client (PTF clients own their
    models) or scatter them into a shared model (the FedAvg baselines train
    one global model).
    """

    def __init__(self, weight: Parameter, kind: str):
        self.weight = weight
        self.kind = kind
        self.count_increments = np.zeros(weight.shape[:2], dtype=np.int64)

    def gather(self, indices: np.ndarray, cohort_index: np.ndarray,
               training: bool) -> Tensor:
        if training:
            np.add.at(self.count_increments, (cohort_index, indices), 1)
        return self.weight[(cohort_index, indices)]


class StackedLinear:
    """``C`` independent linear layers as one batched matmul.

    ``weight`` is ``(C, out, in)`` — each slice multiplied exactly like the
    serial ``x @ W.T`` — and ``bias`` is ``(C, 1, out)`` so broadcasting
    (and its gradient reduction) matches the serial ``(out,)`` bias.
    """

    def __init__(self, weight: Parameter, bias: Optional[Parameter]):
        self.weight = weight
        self.bias = bias

    def __call__(self, inputs: Tensor) -> Tensor:
        output = inputs.matmul(self.weight.swapaxes(-1, -2))
        if self.bias is not None:
            output = output + self.bias
        return output


class StackedAdam:
    """Adam over stacked parameters with per-client step counters.

    Clients may join a cohort with different optimizer histories (partial
    participation), so the bias corrections ``1 - beta ** step`` are
    evaluated per client — with Python-float ``**`` to stay bitwise equal
    to :class:`repro.optim.Adam`.
    """

    def __init__(self, parameters: List[Parameter], cohort: int,
                 lr: float = 0.001, betas: Tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.parameters = parameters
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._steps = [np.zeros(cohort, dtype=np.int64) for _ in parameters]
        self._first = [np.zeros_like(p.data) for p in parameters]
        self._second = [np.zeros_like(p.data) for p in parameters]
        # Reused scratch buffers: the update runs in place over stacked
        # arrays the engine owns, so no step allocates cohort-sized
        # temporaries (large fresh allocations dominated the profile).
        self._scratch = [
            (np.empty_like(p.data), np.empty_like(p.data)) for p in parameters
        ]

    @classmethod
    def from_client_optimizers(cls, parameters: List[Parameter],
                               optimizers: Sequence[Adam]) -> "StackedAdam":
        """Stack the per-client Adam states slot by slot."""
        reference = optimizers[0]
        stacked = cls(
            parameters,
            cohort=len(optimizers),
            lr=reference.lr,
            betas=(reference.beta1, reference.beta2),
            eps=reference.eps,
        )
        if not any(optimizer.has_state() for optimizer in optimizers):
            return stacked  # every client is fresh: the zero init is exact
        for j, parameter in enumerate(parameters):
            slots = [optimizer.slot_state(j) for optimizer in optimizers]
            stacked._steps[j] = np.array([s for s, _, _ in slots], dtype=np.int64)
            stacked._first[j] = np.stack([f for _, f, _ in slots]).reshape(parameter.shape)
            stacked._second[j] = np.stack([s for _, _, s in slots]).reshape(parameter.shape)
        return stacked

    def export_slot(self, j: int, c: int, shape: Tuple[int, ...]):
        """Return client ``c``'s ``(step, first, second)`` for slot ``j``."""
        return (
            int(self._steps[j][c]),
            self._first[j][c].reshape(shape).copy(),
            self._second[j][c].reshape(shape).copy(),
        )

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        # Every operation below reproduces the serial Adam update term by
        # term (products and sums in the same order), only routed through
        # preallocated scratch so no cohort-sized temporary is allocated.
        for j, parameter in enumerate(self.parameters):
            grad = parameter.grad
            if grad is None:
                continue
            steps = self._steps[j]
            steps += 1
            first, second = self._first[j], self._second[j]
            scratch_a, scratch_b = self._scratch[j]

            np.multiply(first, self.beta1, out=first)
            np.multiply(grad, 1.0 - self.beta1, out=scratch_a)
            first += scratch_a

            np.multiply(second, self.beta2, out=second)
            np.multiply(grad, grad, out=scratch_a)
            scratch_a *= 1.0 - self.beta2
            second += scratch_a

            low, high = int(steps.min()), int(steps.max())
            if low == high:
                correction1 = 1.0 - self.beta1 ** low
                correction2 = 1.0 - self.beta2 ** low
            else:
                # Per-client corrections carry the parameter dtype: a
                # float64 array here would make the divide below compute in
                # float64 and round twice under a float32 backend, breaking
                # bitwise equality with the serial optimizer (whose Python-
                # float scalar is weak-cast to the array dtype first).
                shape = (len(steps),) + (1,) * (parameter.ndim - 1)
                correction1 = np.array(
                    [1.0 - self.beta1 ** int(s) for s in steps],
                    dtype=parameter.data.dtype).reshape(shape)
                correction2 = np.array(
                    [1.0 - self.beta2 ** int(s) for s in steps],
                    dtype=parameter.data.dtype).reshape(shape)

            np.divide(first, correction1, out=scratch_a)   # first_hat
            scratch_a *= self.lr
            np.divide(second, correction2, out=scratch_b)  # second_hat
            np.sqrt(scratch_b, out=scratch_b)
            scratch_b += self.eps
            scratch_a /= scratch_b
            parameter.data -= scratch_a


class StackedSGD:
    """Plain SGD over stacked parameters (the FedAvg baselines' local step)."""

    def __init__(self, parameters: List[Parameter], lr: float):
        self.parameters = parameters
        self.lr = lr
        self._scratch = [np.empty_like(p.data) for p in parameters]

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        for parameter, scratch in zip(self.parameters, self._scratch):
            if parameter.grad is None:
                continue
            # In-place form of ``data - lr * grad`` (identical arithmetic).
            np.multiply(parameter.grad, self.lr, out=scratch)
            parameter.data -= scratch


# ----------------------------------------------------------------------
# Stacked model architectures
# ----------------------------------------------------------------------
class _StackedModelBase:
    """Shared stacking machinery: parameter registry and stacking kinds.

    ``entries`` lists ``(qualified_name, stacked_parameter, kind)`` in the
    *same order* as ``model.named_parameters()``, which is also the slot
    order of the per-client optimizers.  Kinds:

    ``"full"``
        stacked shape ``(C, *param.shape)`` — one full copy per client;
    ``"rows"``
        a user-indexed table sliced to each client's own row, stacked as
        ``(C, 1, dim)`` (or ``(C, 1)`` for bias vectors) — clients only ever
        touch their own user row, so slicing is exact;
    ``"items"``
        an item-indexed table cut to each client's ``item_rows[c]``,
        zero-padded to ``(C, max rows, dim)`` (or ``(C, max rows)``);
        row ``k`` of client ``c`` is global row ``item_rows[c][k]``;
    ``"bias"``
        a ``(dim,)`` vector stored as ``(C, 1, dim)`` for broadcasting.
    """

    def __init__(self, models: Sequence, user_rows: Sequence[int],
                 item_rows: Optional[Sequence[np.ndarray]] = None):
        self.cohort = len(models)
        self.user_rows = list(user_rows)
        self.item_rows = None if item_rows is None else list(item_rows)
        self.entries: List[Tuple[str, Parameter, str]] = []
        self.embeddings: Dict[str, StackedEmbedding] = {}

    # -- construction helpers -------------------------------------------
    def _stack_table(self, arrays: Sequence[np.ndarray],
                     indexed_by: str) -> Tuple[np.ndarray, str]:
        """Stack one per-client table indexed by ``"user"`` or ``"item"``."""
        if indexed_by == "user":
            return np.stack([
                array[[row]] for array, row in zip(arrays, self.user_rows)
            ]), "rows"
        if indexed_by == "item" and self.item_rows is not None:
            counts = np.array([rows.size for rows in self.item_rows])
            data = np.zeros((self.cohort, int(counts.max())) + arrays[0].shape[1:],
                            dtype=arrays[0].dtype)
            data[np.arange(data.shape[1]) < counts[:, None]] = np.concatenate([
                array[rows] for array, rows in zip(arrays, self.item_rows)
            ])
            return data, "items"
        return np.stack(arrays), "full"

    def _add_embedding(self, attr: str, models: Sequence,
                       indexed_by: str) -> StackedEmbedding:
        data, kind = self._stack_table(
            [getattr(model, attr).weight.data for model in models], indexed_by
        )
        parameter = Parameter(data, name=f"{attr}.weight")
        embedding = StackedEmbedding(parameter, kind)
        self.entries.append((f"{attr}.weight", parameter, kind))
        self.embeddings[attr] = embedding
        return embedding

    def _add_linear(self, attr: str, models: Sequence) -> StackedLinear:
        layers = [getattr(model, attr) for model in models]
        weight = Parameter(np.stack([layer.weight.data for layer in layers]),
                           name=f"{attr}.weight")
        self.entries.append((f"{attr}.weight", weight, "full"))
        bias = None
        if layers[0].bias is not None:
            bias = Parameter(
                np.stack([layer.bias.data for layer in layers])[:, None, :],
                name=f"{attr}.bias",
            )
            self.entries.append((f"{attr}.bias", bias, "bias"))
        return StackedLinear(weight, bias)

    def _add_vector(self, attr: str, models: Sequence,
                    indexed_by: str) -> Parameter:
        data, kind = self._stack_table(
            [getattr(model, attr).data for model in models], indexed_by
        )
        parameter = Parameter(data, name=attr)
        self.entries.append((attr, parameter, kind))
        return parameter

    # -- shared runtime helpers -----------------------------------------
    def _cohort_index(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.broadcast_to(np.arange(self.cohort)[:, None], shape)

    def parameters(self) -> List[Parameter]:
        return [parameter for _, parameter, _ in self.entries]

    def forward(self, items: np.ndarray, training: bool = True) -> Tensor:
        raise NotImplementedError


class StackedNeuMF(_StackedModelBase):
    """A cohort of NeuMF client models as one stacked model (Eq. 1)."""

    @staticmethod
    def supports(model) -> bool:
        return hasattr(model, "user_embedding_gmf") and hasattr(model, "prediction")

    def __init__(self, models: Sequence, user_rows: Sequence[int],
                 item_rows: Optional[Sequence[np.ndarray]] = None):
        super().__init__(models, user_rows, item_rows)
        first = models[0]
        self.user_gmf = self._add_embedding("user_embedding_gmf", models, "user")
        self.item_gmf = self._add_embedding("item_embedding_gmf", models, "item")
        self.user_mlp = self._add_embedding("user_embedding_mlp", models, "user")
        self.item_mlp = self._add_embedding("item_embedding_mlp", models, "item")
        self.mlp_layers = [
            self._add_linear(f"mlp_{index}", models)
            for index in range(len(first._mlp_layers))
        ]
        self.prediction = self._add_linear("prediction", models)

    def forward(self, items: np.ndarray, training: bool = True) -> Tensor:
        cohort_index = self._cohort_index(items.shape)
        zeros = np.zeros_like(items)

        gmf_user = self.user_gmf.gather(zeros, cohort_index, training)
        gmf_item = self.item_gmf.gather(items, cohort_index, training)
        gmf_vector = gmf_user * gmf_item

        mlp_user = self.user_mlp.gather(zeros, cohort_index, training)
        mlp_item = self.item_mlp.gather(items, cohort_index, training)
        hidden = Tensor.concat([mlp_user, mlp_item], axis=2)
        for layer in self.mlp_layers:
            hidden = layer(hidden).relu()

        fused = Tensor.concat([gmf_vector, hidden], axis=2)
        logits = self.prediction(fused).reshape(self.cohort, items.shape[1])
        return logits.sigmoid()


class StackedMF(_StackedModelBase):
    """A cohort of matrix-factorization models (FCF / FedMF local training)."""

    @staticmethod
    def supports(model) -> bool:
        return (
            hasattr(model, "user_embedding")
            and hasattr(model, "item_embedding")
            and hasattr(model, "use_bias")
        )

    def __init__(self, models: Sequence, user_rows: Sequence[int],
                 item_rows: Optional[Sequence[np.ndarray]] = None):
        super().__init__(models, user_rows, item_rows)
        self.use_bias = models[0].use_bias
        if self.use_bias:
            self.user_bias = self._add_vector("user_bias", models, "user")
            self.item_bias = self._add_vector("item_bias", models, "item")
        self.user_emb = self._add_embedding("user_embedding", models, "user")
        self.item_emb = self._add_embedding("item_embedding", models, "item")

    def forward(self, items: np.ndarray, training: bool = True) -> Tensor:
        cohort_index = self._cohort_index(items.shape)
        zeros = np.zeros_like(items)
        user_vectors = self.user_emb.gather(zeros, cohort_index, training)
        item_vectors = self.item_emb.gather(items, cohort_index, training)
        logits = (user_vectors * item_vectors).sum(axis=2)
        if self.use_bias:
            logits = logits + self.user_bias[(cohort_index, zeros)]
            logits = logits + self.item_bias[(cohort_index, items)]
        return logits.sigmoid()


class StackedMetaMF(_StackedModelBase):
    """A cohort of MetaMF models: meta network over a public base table."""

    @staticmethod
    def supports(model) -> bool:
        return hasattr(model, "item_base_embedding") and hasattr(model, "meta_hidden")

    def __init__(self, models: Sequence, user_rows: Sequence[int],
                 item_rows: Optional[Sequence[np.ndarray]] = None):
        super().__init__(models, user_rows, item_rows)
        self.user_emb = self._add_embedding("user_embedding", models, "user")
        self.item_base = self._add_embedding("item_base_embedding", models, "item")
        self.meta_hidden = self._add_linear("meta_hidden", models)
        self.meta_output = self._add_linear("meta_output", models)

    def forward(self, items: np.ndarray, training: bool = True) -> Tensor:
        cohort_index = self._cohort_index(items.shape)
        zeros = np.zeros_like(items)
        user_vectors = self.user_emb.gather(zeros, cohort_index, training)
        base = self.item_base.gather(items, cohort_index, training)
        hidden = self.meta_hidden(base).relu()
        item_vectors = self.meta_output(hidden) + base
        logits = (user_vectors * item_vectors).sum(axis=2)
        return logits.sigmoid()


_STACKED_ARCHITECTURES = (StackedNeuMF, StackedMF, StackedMetaMF)


def stack_models(models: Sequence, user_rows: Sequence[int],
                 item_rows: Optional[Sequence[np.ndarray]] = None):
    """Stack a homogeneous cohort of models, or ``None`` if unsupported.

    ``user_rows[c]`` names the single user-table row client ``c`` trains;
    PTF client models hold exactly one user row, so callers pass zeros, and
    the FedAvg baselines pass each client's user id into the shared tables.
    ``item_rows[c]``, when given, holds the sorted item ids client ``c``
    trains: every item-indexed table is then stacked row-compact (kind
    ``"items"``) and forwards take local item indices
    (:meth:`ClientTrainingPlan.localized`).  Only plain-SGD cohorts may
    compact (see the module docstring).
    Dispatch is duck-typed so this module never has to import the model
    classes (which would close an import cycle through the protocol code).
    The shared cohort scorer reuses the same ``supports`` predicates to
    pick its closed forms (:mod:`repro.eval.scoring`), so training-time
    batching, batched evaluation and query-time serving recognize
    architectures consistently.
    """
    if not models:
        return None
    first = models[0]
    for architecture in _STACKED_ARCHITECTURES:
        if architecture.supports(first):
            return architecture(models, user_rows, item_rows)
    return None


# ----------------------------------------------------------------------
# Cohort execution
# ----------------------------------------------------------------------
class ClientBatch:
    """One stacked cohort of equally shaped client training plans.

    Executes every ``(epoch, batch)`` step of the plans as a single
    stacked forward/backward/update over all clients at once, accumulating
    each client's loss trajectory exactly as its serial fit loop would.
    """

    def __init__(self, model: _StackedModelBase, optimizer, plans: Sequence[ClientTrainingPlan],
                 clients: Optional[Sequence] = None):
        if not plans:
            raise ValueError("ClientBatch requires at least one plan")
        signature = plans[0].signature
        for plan in plans[1:]:
            if plan.signature != signature:
                raise ValueError(
                    "all plans in a ClientBatch must share one batch signature"
                )
        self.model = model
        self.optimizer = optimizer
        self.plans = list(plans)
        self.clients = list(clients) if clients is not None else None

    @classmethod
    def for_ptf_clients(cls, clients: Sequence, plans: Sequence[ClientTrainingPlan]):
        """Stack PTF clients (their models *and* Adam states), or ``None``."""
        stacked = stack_models([client.model for client in clients],
                               user_rows=[0] * len(clients))
        if stacked is None:
            return None
        optimizer = StackedAdam.from_client_optimizers(
            stacked.parameters(), [client.optimizer for client in clients]
        )
        return cls(stacked, optimizer, plans, clients=clients)

    @property
    def cohort(self) -> int:
        return len(self.plans)

    def run(self) -> np.ndarray:
        """Train the cohort; returns each client's mean batch loss."""
        totals = np.zeros(self.cohort)
        batches = 0
        for epoch_index in range(len(self.plans[0].epochs)):
            for batch_index in range(len(self.plans[0].epochs[epoch_index])):
                items = np.stack([
                    plan.epochs[epoch_index][batch_index][0] for plan in self.plans
                ])
                labels = np.stack([
                    plan.epochs[epoch_index][batch_index][1] for plan in self.plans
                ])
                probabilities = self.model.forward(items, training=True)
                per_client = binary_cross_entropy_per_row(probabilities, labels)
                total = per_client.sum()
                self.optimizer.zero_grad()
                total.backward()
                self.optimizer.step()
                totals += per_client.data
                batches += 1
        return totals / max(batches, 1)

    def writeback(self) -> None:
        """Write stacked parameters, Adam state and counts back to the clients."""
        if self.clients is None:
            raise ValueError("this ClientBatch was not built from PTF clients")
        for c, client in enumerate(self.clients):
            named = dict(client.model.named_parameters())
            for j, (name, parameter, kind) in enumerate(self.model.entries):
                target = named[name]
                if kind == "bias":
                    target.data = parameter.data[c, 0].copy()
                else:
                    target.data = parameter.data[c].copy()
                if parameter.grad is not None:
                    grad = parameter.grad[c, 0] if kind == "bias" else parameter.grad[c]
                    target.grad = grad.reshape(target.data.shape).copy()
                if isinstance(self.optimizer, StackedAdam):
                    step, first, second = self.optimizer.export_slot(
                        j, c, target.data.shape
                    )
                    client.optimizer.load_slot_state(j, step, first, second)
            for attr, embedding in self.model.embeddings.items():
                getattr(client.model, attr).update_counts += embedding.count_increments[c]
            # Serial local_train leaves the model in training mode.
            client.model.train()
