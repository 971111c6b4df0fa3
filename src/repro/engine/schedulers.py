"""Execution schedulers: serial and batched (vectorized).

A :class:`Scheduler` owns *how* one round of client work runs.  The
protocol drivers (:class:`repro.core.protocol.PTFFedRec` and
:class:`repro.federated.base.ParameterTransmissionFedRec`) describe the
round — which clients, which round index, which global state — and the
scheduler decides execution: one client at a time (:class:`Scheduler`) or
stacked into vectorized tensor ops (:class:`BatchedScheduler`).

Every scheduler is bit-identical to the serial reference on a fixed seed:
client randomness is keyed by ``(seed, component, client, round)`` — never
by execution order — and the stacked path replays the exact serial
arithmetic (see :mod:`repro.engine.batch`).

Two :class:`~repro.engine.spec.EngineSpec` knobs bound a round's memory so
cohorts of 10k–1M clients stream through a fixed envelope:

``shard_size``
    Every scheduler processes the cohort in contiguous shards
    (:meth:`Scheduler.iter_shards`): plans, stacked state and per-client
    deltas are materialized for at most one shard at a time.  Shards are
    processed — and aggregated — in cohort order, so the additions
    performed are exactly those of the unsharded round.

``payload="sparse"``
    The FedAvg baselines exchange rows-touched
    :class:`~repro.tensor.sparse.SparseDelta` payloads instead of full
    public tables.  Bit-identical by IEEE-754 arithmetic: a row outside a
    client's touched set receives exactly zero gradient, so its delta is
    ``+0.0`` and skipping its accumulation changes no aggregate.

The batched FedAvg path relies on the same argument for both payload
formats.  It trains each client's touched item rows only (row-compact
stacking, see :mod:`repro.engine.batch`), cuts every client's public
delta down to those rows plus the dense blocks, and folds a whole shard
into the round accumulators with one ``np.add.at`` per public parameter,
ordered by cohort position so each entry receives the serial additions
in the serial order.  The formats differ only in whether touched stats
are recorded.

Per-client touched-row statistics flow back to the drivers through the
:meth:`Scheduler.pop_touched` side-channel so the communication ledger can
meter sparse uploads faithfully.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

# repro: disable=backend-purity -- cohort index bookkeeping and aggregation buffers
import numpy as np

from repro.engine.batch import (
    ClientBatch,
    ClientTrainingPlan,
    StackedSGD,
    stack_models,
)
from repro.engine.spec import EngineSpec
from repro.tensor.sparse import SparseDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.client import ClientUpload, PTFClient
    from repro.core.server import DispersedDataset, PTFServer

#: user -> parameter name -> (rows shipped, values per row); what the
#: drivers meter sparse uploads from.
TouchedStats = Dict[int, Dict[str, Tuple[int, int]]]


def create_scheduler(spec: Optional[EngineSpec] = None) -> "Scheduler":
    """Build the scheduler an :class:`EngineSpec` names (default serial)."""
    spec = spec if spec is not None else EngineSpec()
    classes = {
        "serial": Scheduler,
        "batched": BatchedScheduler,
    }
    return classes[spec.scheduler](spec)


def _group_plans(
    plans: Sequence[Tuple[int, ClientTrainingPlan]],
) -> List[List[Tuple[int, ClientTrainingPlan]]]:
    """Group (key, plan) pairs — a user or a cohort position — by batch signature.

    The caller passes one shard, so ``EngineSpec.shard_size`` bounds every
    group.  Clients are independent, so grouping only changes how much
    work is stacked together — never any result.
    """
    buckets: Dict[tuple, List[Tuple[int, ClientTrainingPlan]]] = {}
    for key, plan in plans:
        buckets.setdefault(plan.signature, []).append((key, plan))
    return list(buckets.values())


def _payload_format(driver) -> str:
    """The parameter-exchange format a FedAvg driver is configured for."""
    return getattr(driver, "payload_format", "dense")


def _row_width(array: np.ndarray) -> int:
    """Values per axis-0 row (1 for vector parameters)."""
    return math.prod(array.shape[1:])


def _zero_touched(global_state: Dict[str, np.ndarray]) -> Dict[str, Tuple[int, int]]:
    """Touched stats of a client that trained nothing (uploads nothing)."""
    return {name: (0, _row_width(value)) for name, value in global_state.items()}


def _client_sparse_payloads(
    named: Dict[str, object],
    global_state: Dict[str, np.ndarray],
    item_row_names: set,
    touched: np.ndarray,
) -> Dict[str, SparseDelta]:
    """Encode one client's public-parameter update as sparse payloads.

    Item-row tables are restricted to the client's plan-touched rows (a
    superset of the rows its gradients could have changed); every other
    public parameter ships as an all-rows dense block.
    """
    payloads: Dict[str, SparseDelta] = {}
    for name, base in global_state.items():
        data = named[name].data
        if name in item_row_names:
            payloads[name] = SparseDelta.between(data, base, rows=touched)
        else:
            payloads[name] = SparseDelta.dense_block(data - base)
    return payloads


def _touched_stats(payloads: Dict[str, SparseDelta]) -> Dict[str, Tuple[int, int]]:
    return {name: (p.num_rows, p.row_width) for name, p in payloads.items()}


def _accumulate_sparse(
    payloads: Dict[str, SparseDelta],
    delta_sum: Dict[str, np.ndarray],
    update_count: Dict[str, np.ndarray],
) -> None:
    """Fold one client's payloads into the round accumulators.

    Performs, at the touched rows, the same elementwise additions the dense
    path performs over the full table; the skipped rows would have added
    exactly ``+0.0``.
    """
    for name in delta_sum:
        payloads[name].add_into(delta_sum[name])
        payloads[name].count_into(update_count[name])


class Scheduler:
    """Serial reference scheduler: the original one-client-at-a-time loops."""

    name = "serial"

    def __init__(self, spec: Optional[EngineSpec] = None):
        self.spec = spec if spec is not None else EngineSpec()
        self._touched: TouchedStats = {}

    def pop_touched(self) -> TouchedStats:
        """Drain the per-client touched-row statistics of the last phase.

        Populated only by the sparse payload path (one entry per completed
        client, mapping each public parameter to ``(num_rows, row_width)``
        of the payload actually shipped); the dense path leaves it empty
        and drivers fall back to full-table upload metering.  Draining is
        the caller's acknowledgement.
        """
        touched, self._touched = self._touched, {}
        return touched

    def iter_shards(self, cohort: Sequence) -> Iterator[List]:
        """Yield ``cohort`` in contiguous shards of ``spec.shard_size``.

        ``shard_size=0`` yields the whole cohort as one shard.  Shards
        partition the cohort *in order*, so per-shard processing followed
        by in-order aggregation performs exactly the additions of the
        unsharded round — sharding is a memory bound, never a result
        change.
        """
        cohort = list(cohort)
        size = self.spec.shard_size
        if size <= 0 or len(cohort) <= size:
            yield cohort
            return
        for start in range(0, len(cohort), size):
            yield cohort[start:start + size]

    # ------------------------------------------------------------------
    # PTF-FedRec client phase
    # ------------------------------------------------------------------
    def train_ptf_clients(
        self,
        clients: Dict[int, "PTFClient"],
        selected: Sequence[int],
        round_index: int,
    ) -> Dict[int, float]:
        """Run local training for the cohort; returns per-client mean loss."""
        return {user: clients[user].local_train(round_index) for user in selected}

    def build_ptf_uploads(
        self,
        clients: Dict[int, "PTFClient"],
        selected: Sequence[int],
        round_index: int,
    ) -> List["ClientUpload"]:
        """Construct the cohort's privacy-protected uploads, in cohort order."""
        return [clients[user].build_upload(round_index) for user in selected]

    def build_ptf_dispersals(
        self,
        server: "PTFServer",
        uploads: Sequence["ClientUpload"],
        round_index: int,
        item_mask: Optional[np.ndarray] = None,
    ) -> List["DispersedDataset"]:
        """Construct the server's dispersed datasets for every upload.

        ``item_mask`` restricts the dispersal candidate pool (streaming
        item arrivals); ``None`` leaves the full catalogue available.
        Dispersal construction reads only server state, so the protocol
        driver may call this shard by shard (:meth:`iter_shards`) and
        apply each shard before building the next — bounded memory,
        identical records.
        """
        return [
            server.build_dispersal(upload, round_index, item_mask=item_mask)
            for upload in uploads
        ]

    # ------------------------------------------------------------------
    # FedAvg-baseline client phase (FCF / FedMF / MetaMF)
    # ------------------------------------------------------------------
    def train_fedavg_clients(
        self,
        driver,
        selected: Sequence[int],
        round_index: int,
        global_state: Dict[str, np.ndarray],
    ) -> Tuple[Dict[int, float], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Run the cohort's local updates against ``global_state``.

        Returns ``(losses, delta_sum, update_count)`` where the aggregation
        arrays accumulate per-client public-parameter deltas in cohort
        order, exactly as the pre-engine sequential loop did.  The serial
        path streams one client at a time, so its memory is already
        independent of cohort size; ``payload="sparse"`` additionally
        shrinks the per-client delta from ``O(table)`` to
        ``O(rows touched)`` and records touched stats for the ledger.
        """
        if _payload_format(driver) == "sparse":
            return self._train_fedavg_sparse(
                driver, selected, round_index, global_state
            )
        from repro.federated.base import run_local_plan

        delta_sum = {name: np.zeros_like(value) for name, value in global_state.items()}
        update_count = {name: np.zeros_like(value) for name, value in global_state.items()}
        losses: Dict[int, float] = {}
        plans = driver.local_training_plans(selected, round_index)
        for user, plan in zip(selected, plans):
            driver._load_public_state(global_state)
            losses[user] = 0.0 if plan is None else run_local_plan(
                driver.model, driver.spec.protocol, user, plan
            )
            updated = driver._public_state()
            for name in delta_sum:
                delta = updated[name] - global_state[name]
                delta_sum[name] += delta
                update_count[name] += (delta != 0.0)
        return losses, delta_sum, update_count

    def _train_fedavg_sparse(self, driver, selected, round_index, global_state):
        """The serial sparse reference: rows-touched deltas, same bits."""
        from repro.federated.base import run_local_plan

        item_rows = set(driver._item_row_parameter_names())
        named = dict(driver.model.named_parameters())
        delta_sum = {name: np.zeros_like(value) for name, value in global_state.items()}
        update_count = {name: np.zeros_like(value) for name, value in global_state.items()}
        losses: Dict[int, float] = {}
        plans = driver.local_training_plans(selected, round_index)
        for user, plan in zip(selected, plans):
            driver._load_public_state(global_state)
            if plan is None:
                losses[user] = 0.0
                self._touched[user] = _zero_touched(global_state)
                continue
            losses[user] = run_local_plan(driver.model, driver.spec.protocol, user, plan)
            payloads = _client_sparse_payloads(
                named, global_state, item_rows, plan.touched_items()
            )
            _accumulate_sparse(payloads, delta_sum, update_count)
            self._touched[user] = _touched_stats(payloads)
        return losses, delta_sum, update_count


class BatchedScheduler(Scheduler):
    """Vectorized scheduler: stacks cohorts into :class:`ClientBatch` runs."""

    name = "batched"

    # -- PTF ------------------------------------------------------------
    def train_ptf_clients(self, clients, selected, round_index):
        losses: Dict[int, float] = {}
        for shard in self.iter_shards(selected):
            pending: List[Tuple[int, ClientTrainingPlan]] = []
            for user in shard:
                plan = clients[user].training_plan(round_index)
                if plan is None:
                    losses[user] = 0.0
                else:
                    pending.append((user, plan))
            for group in _group_plans(pending):
                members = [clients[user] for user, _ in group]
                batch = ClientBatch.for_ptf_clients(members, [plan for _, plan in group])
                if batch is None:
                    for user, _ in group:
                        losses[user] = clients[user].local_train(round_index)
                    continue
                group_losses = batch.run()
                batch.writeback()
                for (user, _), loss in zip(group, group_losses):
                    losses[user] = float(loss)
        return losses

    # -- FedAvg baselines ------------------------------------------------
    def train_fedavg_clients(self, driver, selected, round_index, global_state):
        model = driver.model
        public_names = driver._public_names
        if not _private_params_are_user_rows(model, public_names, driver.dataset.num_users):
            # A private parameter we cannot row-slice: the serial reference
            # is the only faithful execution.
            return super().train_fedavg_clients(
                driver, selected, round_index, global_state
            )
        sparse = _payload_format(driver) == "sparse"
        item_rows = set(driver._item_row_parameter_names())
        # (rows, values per row) each public parameter ships in full.
        full_stats = {name: (value.shape[0], _row_width(value))
                      for name, value in global_state.items()}

        # Honor the global_state argument (don't rely on driver.model already
        # carrying it): every client must start from these public values.
        from repro.federated.base import load_public_state

        load_public_state(model, public_names, global_state)

        losses: Dict[int, float] = {}
        delta_sum = {name: np.zeros_like(value) for name, value in global_state.items()}
        update_count = {name: np.zeros_like(value) for name, value in global_state.items()}

        # One lazy plan stream for the cohort; zip stops on the shard first,
        # so each shard takes exactly its own plans, built shard by shard.
        plans = driver.local_training_plans(selected, round_index)
        for shard in self.iter_shards(selected):
            pending: List[Tuple[int, ClientTrainingPlan]] = []  # (position, plan)
            for position, (user, plan) in enumerate(zip(shard, plans)):
                if plan is None:
                    losses[user] = 0.0
                    if sparse:
                        self._touched[user] = _zero_touched(global_state)
                else:
                    pending.append((position, plan))

            # Every client's public deltas as (cohort position, global row,
            # row delta) pieces, folded once per shard below.
            pieces: Dict[str, List[Tuple[np.ndarray, ...]]] = {
                name: [] for name in global_state
            }
            for group in _group_plans(pending):
                owners = np.array([position for position, _ in group])
                users = [shard[position] for position in owners]
                touched, local_plans = zip(*(plan.localized() for _, plan in group))
                stacked = stack_models([model] * len(users), user_rows=users,
                                       item_rows=touched)
                if stacked is None:
                    return super().train_fedavg_clients(
                        driver, selected, round_index, global_state
                    )
                optimizer = StackedSGD(
                    stacked.parameters(), lr=driver.spec.protocol.local_learning_rate
                )
                group_losses = ClientBatch(stacked, optimizer, local_plans).run()
                counts = np.array([rows.size for rows in touched])
                for c, user in enumerate(users):
                    losses[user] = float(group_losses[c])
                    if sparse:
                        self._touched[user] = {
                            name: (int(counts[c]), width) if name in item_rows
                            else (rows, width)
                            for name, (rows, width) in full_stats.items()
                        }
                _collect_group_deltas(model, stacked, owners, touched, counts,
                                      global_state, pieces)
                model.train()

            # Fold the shard in cohort order (float addition is not
            # associative; the serial loop's order is the reference, and
            # contiguous shards preserve it globally).
            for name, parts in pieces.items():
                if parts:
                    _fold_in_cohort_order(parts, delta_sum[name], update_count[name])
        return losses, delta_sum, update_count


def _collect_group_deltas(model, stacked, owners, touched, counts, global_state,
                          pieces) -> None:
    """Cut one trained group into per-row public deltas; write back the rest.

    A client's item-table delta is ``compact[c, :R_c] - base[touched_c]``;
    rows outside ``touched_c`` kept their base value, so their delta is
    ``+0.0`` and adding it would change no accumulator.  Dense blocks
    (meta-network weights, biases) contribute every row.  Private user
    rows and the embeddings' update counts go straight back into
    ``model``.
    """
    valid = np.arange(int(counts.max())) < counts[:, None]
    item_rows = np.concatenate(touched)
    named = dict(model.named_parameters())
    for name, parameter, kind in stacked.entries:
        if name not in global_state:
            # Each client touches only its own user row, so writing the
            # trained rows back into the shared model reproduces the serial
            # sequential updates exactly (disjoint rows).
            assert kind == "rows"
            named[name].data[stacked.user_rows] = parameter.data[:, 0]
            continue
        base = global_state[name]
        if kind == "items":
            pieces[name].append((np.repeat(owners, counts), item_rows,
                                 parameter.data[valid] - base[item_rows]))
        else:
            values = parameter.data[:, 0] if kind == "bias" else parameter.data
            pieces[name].append((
                np.repeat(owners, base.shape[0]),
                np.tile(np.arange(base.shape[0]), len(owners)),
                (values - base).reshape((-1,) + base.shape[1:]),
            ))
    for attr, embedding in stacked.embeddings.items():
        if embedding.kind == "rows":
            rows, increments = stacked.user_rows, embedding.count_increments[:, 0]
        else:
            assert embedding.kind == "items"
            rows, increments = item_rows, embedding.count_increments[valid]
        np.add.at(getattr(model, attr).update_counts, rows, increments)


def _fold_in_cohort_order(parts, delta_sum: np.ndarray, update_count: np.ndarray) -> None:
    """Add a shard's ``(owner, row, delta)`` pieces into the accumulators.

    ``np.add.at`` applies its indices in sequence, so sorting the pieces by
    cohort position (stably) gives every row its additions in the serial
    cohort order, whatever order the signature groups ran in.  The scatter
    runs on flat element indices, NumPy's fast 1-D path; the accumulators
    are freshly allocated, contiguous arrays, so ``reshape(-1)`` is a view.
    """
    owners = np.concatenate([owner for owner, _, _ in parts])
    order = np.argsort(owners, kind="stable")
    rows = np.concatenate([row for _, row, _ in parts])[order]
    deltas = np.concatenate([delta for _, _, delta in parts])[order]
    width = _row_width(delta_sum)
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    deltas = deltas.reshape(-1)
    np.add.at(delta_sum.reshape(-1), flat, deltas)
    np.add.at(update_count.reshape(-1), flat, (deltas != 0.0).astype(update_count.dtype))


def _private_params_are_user_rows(model, public_names, num_users) -> bool:
    """Whether every private parameter is a table indexed by user.

    A private parameter whose first dimension is not ``num_users`` couples
    clients sequentially through shared state and cannot be batched
    faithfully.
    """
    return all(
        parameter.data.shape[0] == num_users
        for name, parameter in model.named_parameters()
        if name not in public_names
    )

