"""Simulation of the traditional parameter transmission-based FedRec protocol.

One simulated round (Section II-B of the paper):

1. the server sends the current public parameters to every selected client
   (the download leg),
2. each client combines them with its private parameters (its own user
   embedding), trains locally on its private interactions for a few
   epochs, and
3. uploads its updated public parameters (equivalently, their deltas),
4. the server averages the uploads (FedAvg) into the new global public
   parameters.

The same driver powers FCF, FedMF and MetaMF; subclasses choose the global
model, declare which parameters are public, and price the two transfer
legs for the communication ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Sequence

# repro: disable=backend-purity -- FedAvg aggregates state_dict ndarrays in parameter-registration order
import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.sampling import UserBatchSampler
from repro.engine import ClientTrainingPlan
from repro.eval.ranking import RankingEvaluator, RankingResult
from repro.eval.scoring import DEFAULT_CHUNK_SIZE
from repro.federated.communication import FLOAT_BYTES, sparse_parameter_bytes
from repro.federated.driver import RoundDriver
from repro.models.base import Recommender
from repro.nn.losses import PointwiseBCELoss
from repro.optim import SGD
from repro.tensor.sparse import SparseDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec, ProtocolSpec


# ----------------------------------------------------------------------
# The per-client local update, shared by every execution scheduler
# ----------------------------------------------------------------------
#: Stride mixing the client id into ``"local-sampling"`` stream keys.
LOCAL_SAMPLING_STRIDE = 100_003


def build_local_plan(
    protocol: "ProtocolSpec",
    rng: np.random.Generator,
    user: int,
    positives: np.ndarray,
    num_items: int,
) -> ClientTrainingPlan:
    """Materialize one client's local-epoch batches from its ``rng``."""
    sampler = UserBatchSampler(
        num_items=num_items,
        positive_items=positives,
        negative_ratio=protocol.negative_ratio,
        batch_size=protocol.client_batch_size,
        rng=rng,
    )
    epochs = [list(sampler.epoch()) for _ in range(protocol.client_local_epochs)]
    return ClientTrainingPlan(user_id=int(user), epochs=epochs)


def run_local_plan(model: Recommender, protocol: "ProtocolSpec", user: int,
                   plan: ClientTrainingPlan) -> float:
    """Execute a client's plan against ``model``; returns the mean loss."""
    optimizer = SGD(model.parameters(), lr=protocol.local_learning_rate)
    loss_fn = PointwiseBCELoss()
    model.train()
    total_loss = 0.0
    batches = 0
    for epoch_batches in plan.epochs:
        for items, labels in epoch_batches:
            users = np.full(len(items), user, dtype=np.int64)
            predictions = model.score(users, items)
            loss = loss_fn(predictions, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total_loss += loss.item()
            batches += 1
    return total_loss / max(batches, 1)


def load_public_state(model: Recommender, public_names, state) -> None:
    """Overwrite the model's public parameters with ``state``."""
    for name, parameter in model.named_parameters():
        if name in public_names:
            parameter.data = state[name].copy()


class ParameterTransmissionFedRec(RoundDriver):
    """Base driver for FedAvg-style federated recommenders (the spec fields
    it reads are listed in :mod:`repro.experiments.trainers`)."""

    name = "parameter-transmission-fedrec"

    def __init__(self, dataset: InteractionDataset, spec: Optional["ExperimentSpec"] = None):
        from repro.tensor.backend import use_backend

        super().__init__(dataset, spec)
        # The spec allows 0 for PTF ablations; a FedAvg round must train.
        if self.spec.protocol.client_local_epochs <= 0:
            raise ValueError(
                f"client_local_epochs must be positive for {self.name}, "
                f"got {self.spec.protocol.client_local_epochs}"
            )
        # The driver honors its spec's backend even when constructed
        # directly (the trainer adapters wrap too — nesting is harmless),
        # so the global model's dtype always matches spec.backend.
        with use_backend(self.spec.backend):
            self.model = self._build_global_model()
        self._public_names = set(self._public_parameter_names())
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _build_global_model(self) -> Recommender:
        raise NotImplementedError

    def _public_parameter_names(self) -> Sequence[str]:
        """Qualified names (per ``Module.named_parameters``) of public params."""
        raise NotImplementedError

    def _download_bytes(self) -> int:
        """Bytes shipped server→client each round."""
        raise NotImplementedError

    def _upload_bytes(self) -> int:
        """Bytes shipped client→server each round."""
        raise NotImplementedError

    def _item_row_parameter_names(self) -> Sequence[str]:
        """Public parameters that are item-row tables.

        The sparse payload path restricts these tables to each client's
        touched rows; every other public parameter ships whole.  Default:
        none (every public parameter is exchanged as a dense block).
        """
        return ()

    def _sparse_value_bytes(self) -> int:
        """Per-value wire cost of a sparse upload (FedMF ships ciphertexts)."""
        return FLOAT_BYTES

    @property
    def payload_format(self) -> str:
        """The configured parameter-exchange format (``dense`` or ``sparse``)."""
        return self.spec.engine.payload

    def _upload_bytes_sparse(self, touched: Mapping[str, tuple]) -> int:
        """Price one client's upload from its actual touched-row stats.

        Item-row tables pay per touched row (index + row values); other
        public parameters ship as dense blocks with no index overhead.
        Row indices stay plaintext even under encryption — which rows
        carry an update is already exposed by the payload's shape.
        """
        item_rows = set(self._item_row_parameter_names())
        value_bytes = self._sparse_value_bytes()
        total = 0
        for name, (num_rows, row_width) in touched.items():
            if name in item_rows:
                total += sparse_parameter_bytes(
                    num_rows, row_width, value_bytes=value_bytes
                )
            else:
                total += num_rows * row_width * value_bytes
        return total

    # ------------------------------------------------------------------
    # Federated round
    # ------------------------------------------------------------------
    def _public_state(self) -> Dict[str, np.ndarray]:
        return {
            name: parameter.data.copy()
            for name, parameter in self.model.named_parameters()
            if name in self._public_names
        }

    def _load_public_state(self, state: Dict[str, np.ndarray]) -> None:
        load_public_state(self.model, self._public_names, state)

    def local_training_plans(
        self, users: Sequence[int], round_index: int
    ) -> Iterator[Optional[ClientTrainingPlan]]:
        """Yield each user's local-training plan in order (``None`` without positives).

        Client ``u`` samples from its ``spawn_indexed("local-sampling",
        u * LOCAL_SAMPLING_STRIDE + round_index)`` stream.  The cohort's
        streams are seeded in one ``RngFactory.iter_indexed`` pass; a user
        without positives leaves every other stream untouched (they are
        keyed).  Plans are built lazily, so a streaming caller holds one at
        a time.
        """
        users = [int(user) for user in users]
        positives = [self.dataset.train_items(user) for user in users]
        keys = [user * LOCAL_SAMPLING_STRIDE + round_index
                for user, items in zip(users, positives) if items.size]
        generators = self._rngs.iter_indexed("local-sampling", keys)
        for user, items in zip(users, positives):
            if items.size == 0:
                yield None
            else:
                yield build_local_plan(self.spec.protocol, next(generators), user,
                                       items, self.dataset.num_items)

    def _encode_buffered(self, arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
        """Encode a stale cohort's summed payload for buffering.

        Sparse runs keep only the nonzero rows (the buffer would otherwise
        hold full public tables per straggling cohort); dense runs keep the
        arrays as-is.  Folding a sparse entry back in is bit-identical: the
        dropped rows are exactly ``0.0`` and would contribute ``+0.0``.
        """
        if self.payload_format != "sparse":
            return dict(arrays)
        return {name: SparseDelta.from_dense(value) for name, value in arrays.items()}

    def run_round(self, round_index: int) -> Dict[str, float]:
        """Execute one full federated round; returns its ``logs``.

        The per-client local updates run through the configured execution
        engine (serial or batched — bit-identical), group by group, as the
        round's :class:`~repro.scenario.RoundPlan` directs; without a
        scenario every selected client is on time.  Aggregation is
        coordinate-wise federated averaging over the clients that actually
        updated each entry: a client that never interacted with an item
        contributes nothing to that item's embedding, which is the standard
        practice in FedRec systems (only interacting users hold gradients
        for an item).

        The on-time cohort aggregates immediately with weight 1; async
        stragglers train now but their summed deltas are buffered and
        folded into round ``round_index + staleness`` with weight
        ``staleness_alpha / (staleness + 1)``; sync (or over-stale)
        stragglers train — the device did the work — but their payload is
        discarded; churned clients do nothing.  Weighted averaging
        renormalizes by the weighted update count, so partial cohorts never
        dilute the update.

        Under ``payload="sparse"`` the upload leg is metered from each
        client's actual touched-row statistics (:meth:`Scheduler.pop_touched`)
        instead of the flat full-table price — the download leg stays a
        dense broadcast of the public parameters.
        """
        plan = self._plan_round(round_index)
        global_state = self._public_state()
        download_bytes = self._download_bytes()
        upload_bytes = self._upload_bytes()

        weighted_sum = {n: np.zeros_like(v) for n, v in global_state.items()}
        weighted_count = {n: np.zeros_like(v) for n, v in global_state.items()}
        losses: Dict[int, float] = {}

        def train_group(users):
            group_losses, dsum, dcount = self.engine.train_fedavg_clients(
                self, list(users), round_index, global_state
            )
            losses.update(group_losses)
            return dsum, dcount

        if plan.on_time:
            dsum, dcount = train_group(plan.on_time)
            for name in weighted_sum:
                weighted_sum[name] += dsum[name]
                weighted_count[name] += dcount[name]
        for staleness, users in plan.stale_groups():
            dsum, dcount = train_group(users)
            self._stale_buffer.append({
                "due_round": round_index + staleness,
                "origin_round": round_index,
                "staleness": staleness,
                "users": users,
                "delta_sum": self._encode_buffered(dsum),
                "update_count": self._encode_buffered(dcount),
            })
        if plan.lost:
            train_group(plan.lost)
        touched = self.engine.pop_touched()

        # Fold in buffered payloads that are due this round.  Sparse runs
        # buffer rows-touched payloads; folding them adds, at the encoded
        # rows, the same weighted values the dense fold adds — the skipped
        # rows would have contributed exactly ``weight * 0.0``.
        applied = 0
        for entry in self._pop_due(round_index):
            weight = self.scenario.staleness_weight(int(entry["staleness"]))
            for name in weighted_sum:
                dsum_value = entry["delta_sum"][name]
                dcount_value = entry["update_count"][name]
                if isinstance(dsum_value, SparseDelta):
                    dsum_value.add_into(weighted_sum[name], weight=weight)
                else:
                    weighted_sum[name] += weight * dsum_value
                if isinstance(dcount_value, SparseDelta):
                    dcount_value.add_into(weighted_count[name], weight=weight)
                else:
                    weighted_count[name] += weight * dcount_value
            applied += len(entry["users"])

        dropped = set(plan.dropped)
        uploaded = set(plan.on_time) | set(plan.stale)
        # One description string per leg, shared by every record.
        download_text = f"{self.name} public parameters"
        sparse_text = f"{self.name} sparse parameter update"
        dense_text = f"{self.name} public parameter update"
        for user in plan.selected:
            if user in dropped:
                continue
            self.ledger.record(round_index, user, "download", download_bytes,
                               description=download_text)
            if user not in uploaded:
                continue
            if user in touched:
                self.ledger.record(round_index, user, "upload",
                                   self._upload_bytes_sparse(touched[user]),
                                   description=sparse_text)
            else:
                self.ledger.record(round_index, user, "upload", upload_bytes,
                                   description=dense_text)

        new_state = {}
        for name, base in global_state.items():
            count = np.where(weighted_count[name] > 0.0, weighted_count[name], 1.0)
            new_state[name] = base + weighted_sum[name] / count
        self._load_public_state(new_state)
        self.rounds_completed += 1

        client_losses = [losses[user] for user in plan.trained]
        logs = {
            "num_clients": len(plan.selected),
            "client_loss": float(np.mean(client_losses)) if client_losses else 0.0,
        }
        participation = self._participation(plan, applied)
        if participation is not None:
            logs.update(participation.as_logs())
        return logs

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Global model (public + private rows), ledger and round counter.

        The per-client local optimizer is SGD built fresh every round, so
        the model tables and the round counter are the whole training
        state of a FedAvg-style baseline.  Async-scenario runs additionally
        carry the buffered stale payloads, so a resumed run folds them into
        exactly the rounds an uninterrupted run would have.
        """
        return {
            "rounds_completed": int(self.rounds_completed),
            "model": self.model.state_dict(),
            "ledger": self.ledger.state_dict(),
            "stale_buffer": [
                {
                    "due_round": int(entry["due_round"]),
                    "origin_round": int(entry["origin_round"]),
                    "staleness": int(entry["staleness"]),
                    "users": [int(user) for user in entry["users"]],
                    "delta_sum": {
                        name: value.state_dict() if isinstance(value, SparseDelta)
                        else value
                        for name, value in entry["delta_sum"].items()
                    },
                    "update_count": {
                        name: value.state_dict() if isinstance(value, SparseDelta)
                        else value
                        for name, value in entry["update_count"].items()
                    },
                }
                for entry in self._stale_buffer
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot; the next round continues
        bit-identically to a run that was never interrupted."""
        self.model.load_state_dict(state["model"])
        self.ledger.load_state_dict(state["ledger"])
        self.rounds_completed = int(state["rounds_completed"])
        self._stale_buffer = [
            {
                "due_round": int(entry["due_round"]),
                "origin_round": int(entry["origin_round"]),
                "staleness": int(entry["staleness"]),
                "users": [int(user) for user in entry["users"]],
                "delta_sum": {
                    name: SparseDelta.from_state_dict(value)
                    if SparseDelta.is_state_dict(value) else np.asarray(value)
                    for name, value in entry["delta_sum"].items()
                },
                "update_count": {
                    name: SparseDelta.from_state_dict(value)
                    if SparseDelta.is_state_dict(value) else np.asarray(value)
                    for name, value in entry["update_count"].items()
                },
            }
            for entry in state.get("stale_buffer", [])
        ]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        k: int = 20,
        max_users: Optional[int] = None,
        batch_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    ) -> RankingResult:
        """Rank with the global public + per-user private parameters.

        ``batch_size`` chooses the evaluator's execution path (chunked
        cohort scoring by default, the per-user reference loop with
        ``None``); both return equal results.
        """
        evaluator = RankingEvaluator(self.dataset, k=k)
        return evaluator.evaluate(self.model, max_users=max_users, batch_size=batch_size)

    def average_client_round_kilobytes(self) -> float:
        """Average per-client per-round communication in KB (Table IV)."""
        return self.ledger.average_client_round_kilobytes()
