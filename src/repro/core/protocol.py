"""End-to-end driver for the PTF-FedRec learning protocol (Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

# repro: disable=backend-purity -- the PTF wire format exchanges plain prediction arrays, not tensors
import numpy as np

from repro.core.attack import AttackReport, TopGuessAttack
from repro.core.client import ClientUpload, PTFClient
from repro.core.config import PTFConfig, ensure_spec, legacy_config_view
from repro.core.server import PTFServer
from repro.data.dataset import InteractionDataset
from repro.engine import create_scheduler
from repro.engine.batch import stack_models
from repro.eval.ranking import RankingEvaluator, RankingResult
from repro.eval.scoring import DEFAULT_CHUNK_SIZE
from repro.tensor import no_grad
from repro.federated.communication import CommunicationLedger, prediction_triple_bytes
from repro.scenario import RoundParticipation, ScenarioEngine
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.callbacks import Callback
    from repro.experiments.spec import ExperimentSpec


@dataclass(frozen=True)
class RoundSummary:
    """Bookkeeping for one global round.

    ``participation`` is only populated on rounds where dynamic federation
    was in play (a scenario is configured); plain rounds keep it ``None``
    and their log schema unchanged.
    """

    round_index: int
    num_clients: int
    client_loss: float
    server_loss: float
    uploaded_records: int
    dispersed_records: int
    participation: Optional[RoundParticipation] = None

    def as_logs(self) -> Dict[str, float]:
        """The round's scalar metrics in callback ``logs`` form."""
        logs = {
            "num_clients": self.num_clients,
            "client_loss": self.client_loss,
            "server_loss": self.server_loss,
            "uploaded_records": self.uploaded_records,
            "dispersed_records": self.dispersed_records,
        }
        if self.participation is not None:
            logs.update(self.participation.as_logs())
        return logs


class PTFFedRec:
    """The parameter transmission-free federated recommender system.

    Orchestrates clients and the central server through the four-step loop
    of Algorithm 1: client local training, privacy-preserving prediction
    upload, server training on the pooled uploads, and confidence-based
    hard dispersal back to the clients.  Communication (prediction triples
    in both directions, nothing else) is metered in :attr:`ledger`.

    Configured by a :class:`repro.experiments.ExperimentSpec` (a legacy
    :class:`PTFConfig` is accepted and converted; ``None`` uses the paper's
    defaults).  The spec's ``engine`` section chooses how the per-round
    client work is executed (serial reference loop, vectorized batches, or
    worker processes); all schedulers are bit-identical on a fixed seed.
    ``engine.shard_size`` additionally streams the cohort (training and
    the dispersal fan-out) through bounded shards; ``engine.payload`` is a
    no-op here — the protocol's whole point is that its exchange
    (prediction triples) is already sparse.
    """

    name = "PTF-FedRec"

    def __init__(
        self,
        dataset: InteractionDataset,
        config: Union["ExperimentSpec", PTFConfig, None] = None,
    ):
        from repro.tensor.backend import use_backend

        self.dataset = dataset
        self.spec = ensure_spec(config)
        self._rngs = RngFactory(self.spec.seed)
        self.ledger = CommunicationLedger()
        self.engine = create_scheduler(self.spec.engine)

        # Honor the spec's backend on direct construction too (the trainer
        # adapters also wrap — nesting the context is harmless), so server
        # and client models carry spec.backend's dtype either way.
        with use_backend(self.spec.backend):
            self.server = PTFServer(
                dataset.num_users, dataset.num_items, self.spec, self._rngs
            )
            self.clients: Dict[int, PTFClient] = {
                user: PTFClient(
                    user_id=user,
                    num_items=dataset.num_items,
                    positive_items=dataset.train_items(user),
                    config=self.spec,
                    rngs=self._rngs,
                )
                for user in dataset.users
            }
        self.scenario = ScenarioEngine(
            self.spec.scenario, self._rngs, sorted(self.clients), dataset.num_items
        )
        # Buffered late uploads (async aggregation): each entry holds one
        # straggler's prediction dataset and the round it folds into;
        # serialized with the checkpoint so resume replays them.
        self._stale_uploads: List[dict] = []
        self.round_summaries: List[RoundSummary] = []
        self.last_round_uploads: List[ClientUpload] = []

    @property
    def config(self) -> PTFConfig:
        """Deprecated flat snapshot of :attr:`spec` (pre-1.1 compatibility)."""
        return legacy_config_view(self.spec)

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def _select_clients(self, round_index: int) -> List[int]:
        users = sorted(self.clients)
        if self.spec.protocol.client_fraction >= 1.0:
            return users
        rng = self._rngs.spawn_indexed("protocol-client-selection", round_index)
        count = max(1, int(round(self.spec.protocol.client_fraction * len(users))))
        return sorted(rng.choice(users, size=count, replace=False).tolist())

    def run_round(self, round_index: int) -> RoundSummary:
        """Execute one global round and return its summary.

        The client-side work (local training, upload construction, and the
        consumption of the server's dispersal fan-out) runs through the
        configured execution engine; the scheduler choice never changes the
        numbers, only how fast they are produced.

        With a scenario configured, the round instead runs the
        dynamic-participation path (:meth:`_run_round_scenario`): churned
        clients skip the round, stragglers' uploads are discarded or
        buffered, and the server trains on what actually arrived.
        """
        if self.scenario.enabled:
            return self._run_round_scenario(round_index)
        selected = self._select_clients(round_index)

        losses = self.engine.train_ptf_clients(self.clients, selected, round_index)
        client_losses: List[float] = [losses[user] for user in selected]
        uploads = self.engine.build_ptf_uploads(self.clients, selected, round_index)
        for upload in uploads:
            self.ledger.record(
                round_index,
                upload.user_id,
                "upload",
                prediction_triple_bytes(upload.num_records),
                description="client prediction dataset",
            )

        server_loss = self.server.train_on_uploads(uploads, round_index)

        # Stream the dispersal fan-out shard by shard: dispersal
        # construction reads only server state, so applying one shard
        # before building the next bounds the in-flight dispersal buffer
        # at O(shard_size) without changing a single record.
        dispersed_total = 0
        for upload_shard in self.engine.iter_shards(uploads):
            dispersals = self.engine.build_ptf_dispersals(
                self.server, upload_shard, round_index
            )
            for dispersal in dispersals:
                self.clients[dispersal.user_id].receive_dispersal(dispersal.items, dispersal.scores)
                dispersed_total += dispersal.num_records
                self.ledger.record(
                    round_index,
                    dispersal.user_id,
                    "download",
                    prediction_triple_bytes(dispersal.num_records),
                    description="server dispersed predictions",
                )

        summary = RoundSummary(
            round_index=round_index,
            num_clients=len(selected),
            client_loss=float(np.mean(client_losses)) if client_losses else 0.0,
            server_loss=server_loss,
            uploaded_records=sum(upload.num_records for upload in uploads),
            dispersed_records=dispersed_total,
        )
        self.round_summaries.append(summary)
        self.last_round_uploads = uploads
        return summary

    def _run_round_scenario(self, round_index: int) -> RoundSummary:
        """One global round under fault injection.

        Per the round's :class:`~repro.scenario.RoundPlan`: churned clients
        do nothing, stragglers train and build their upload but it misses
        the server's aggregation — discarded in sync mode, buffered until
        ``round_index + staleness`` in async mode.  A buffered upload folds
        in with staleness-decayed weight ``alpha / (staleness + 1)``,
        realized as deterministic record subsampling (the server trains on
        ``max(1, round(weight * n))`` of its ``n`` records, drawn from the
        dedicated ``"scenario-staleness"`` stream), so stale knowledge
        still arrives but moves the server proportionally less.  The
        server disperses back to every client whose upload reached this
        round — on-time and freshly-arrived stale ones — restricted to the
        items that have streamed into the catalogue so far.
        """
        plan = self.scenario.plan_round(self._select_clients(round_index), round_index)

        losses = self.engine.train_ptf_clients(
            self.clients, list(plan.trained), round_index
        )
        client_losses = [losses[user] for user in plan.trained]

        uploads = self.engine.build_ptf_uploads(self.clients, plan.on_time, round_index)
        stale_users = [user for user in plan.selected if user in plan.stale]
        stale_uploads = self.engine.build_ptf_uploads(
            self.clients, stale_users, round_index
        )
        for upload in uploads + stale_uploads:
            self.ledger.record(
                round_index,
                upload.user_id,
                "upload",
                prediction_triple_bytes(upload.num_records),
                description="client prediction dataset",
            )
        for user, upload in zip(stale_users, stale_uploads):
            self._stale_uploads.append({
                "due_round": round_index + plan.stale[user],
                "origin_round": round_index,
                "staleness": plan.stale[user],
                "upload": upload,
            })

        # Fold in buffered uploads that are due this round, FIFO.
        applied_uploads: List[ClientUpload] = []
        pending_buffer = []
        for entry in self._stale_uploads:
            if int(entry["due_round"]) > round_index:
                pending_buffer.append(entry)
                continue
            applied_uploads.append(self._decayed_upload(
                entry["upload"], int(entry["staleness"]), int(entry["origin_round"])
            ))
        self._stale_uploads = pending_buffer

        pool = uploads + applied_uploads
        server_loss = self.server.train_on_uploads(pool, round_index)

        dispersed_total = 0
        item_mask = self.scenario.arrived_item_mask(round_index)
        for upload_shard in self.engine.iter_shards(pool):
            dispersals = self.engine.build_ptf_dispersals(
                self.server, upload_shard, round_index, item_mask=item_mask
            )
            for dispersal in dispersals:
                self.clients[dispersal.user_id].receive_dispersal(dispersal.items, dispersal.scores)
                dispersed_total += dispersal.num_records
                self.ledger.record(
                    round_index,
                    dispersal.user_id,
                    "download",
                    prediction_triple_bytes(dispersal.num_records),
                    description="server dispersed predictions",
                )

        summary = RoundSummary(
            round_index=round_index,
            num_clients=len(plan.selected),
            client_loss=float(np.mean(client_losses)) if client_losses else 0.0,
            server_loss=server_loss,
            uploaded_records=sum(upload.num_records for upload in pool),
            dispersed_records=dispersed_total,
            participation=RoundParticipation(
                selected=len(plan.selected),
                completed=len(plan.on_time),
                dropped=len(plan.dropped) + len(plan.lost),
                straggled=len(plan.stale) + len(plan.lost),
                stale_applied=len(applied_uploads),
            ),
        )
        self.round_summaries.append(summary)
        self.last_round_uploads = pool
        return summary

    def _decayed_upload(
        self, upload: ClientUpload, staleness: int, origin_round: int
    ) -> ClientUpload:
        """Subsample a buffered upload down to its staleness weight."""
        weight = self.scenario.staleness_weight(staleness)
        if weight >= 1.0 or upload.num_records <= 1:
            return upload
        keep = max(1, int(round(weight * upload.num_records)))
        if keep >= upload.num_records:
            return upload
        rng = self._rngs.spawn_indexed(
            "scenario-staleness", upload.user_id * 1_000_003 + origin_round
        )
        index = np.sort(rng.choice(upload.num_records, size=keep, replace=False))
        return ClientUpload(
            user_id=upload.user_id,
            items=upload.items[index],
            scores=upload.scores[index],
            true_positive_items=upload.true_positive_items,
        )

    def fit(
        self,
        rounds: Optional[int] = None,
        callbacks: Optional[Sequence["Callback"]] = None,
    ) -> "PTFFedRec":
        """Run the configured number of global rounds.

        ``callbacks`` receive the shared training hooks
        (:meth:`on_round_start`, :meth:`on_round_end` with the round's
        summary metrics, :meth:`on_fit_end`) and may stop training early.
        """
        from repro.experiments.callbacks import CallbackList
        from repro.tensor.backend import use_backend

        hooks = CallbackList(callbacks)
        total = rounds if rounds is not None else self.spec.protocol.rounds
        start = len(self.round_summaries)
        hooks.on_fit_start(self)
        with use_backend(self.spec.backend):
            for round_index in range(start, start + total):
                hooks.on_round_start(self, round_index)
                summary = self.run_round(round_index)
                hooks.on_round_end(self, round_index, summary.as_logs())
                if hooks.should_stop:
                    break
        hooks.on_fit_end(self)
        return self

    # ------------------------------------------------------------------
    # Serialization (used by repro.artifacts checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full protocol state: server, every client, ledger and summaries.

        ``last_round_uploads`` is intentionally excluded: the next
        :meth:`run_round` rebuilds it, and the privacy audit always grades
        the most recent round of an *active* run.
        """
        return {
            "rounds_completed": len(self.round_summaries),
            "round_summaries": [
                {
                    "round_index": summary.round_index,
                    "num_clients": summary.num_clients,
                    "client_loss": summary.client_loss,
                    "server_loss": summary.server_loss,
                    "uploaded_records": summary.uploaded_records,
                    "dispersed_records": summary.dispersed_records,
                    "participation": (
                        summary.participation.as_logs()
                        if summary.participation is not None else None
                    ),
                }
                for summary in self.round_summaries
            ],
            "stale_uploads": [
                {
                    "due_round": int(entry["due_round"]),
                    "origin_round": int(entry["origin_round"]),
                    "staleness": int(entry["staleness"]),
                    "user_id": int(entry["upload"].user_id),
                    "items": entry["upload"].items,
                    "scores": entry["upload"].scores,
                    "true_positive_items": entry["upload"].true_positive_items,
                }
                for entry in self._stale_uploads
            ],
            "ledger": self.ledger.state_dict(),
            "server": self.server.state_dict(),
            "clients": {
                str(user): client.state_dict() for user, client in self.clients.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; the next round continues
        bit-identically to a run that was never interrupted."""
        client_states = state["clients"]
        missing = {str(user) for user in self.clients} - set(client_states)
        unexpected = set(client_states) - {str(user) for user in self.clients}
        if missing or unexpected:
            raise KeyError(
                f"client set mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)} — was the checkpoint taken "
                "on a different dataset?"
            )
        self.server.load_state_dict(state["server"])
        for user, client in self.clients.items():
            client.load_state_dict(client_states[str(user)])
        self.ledger.load_state_dict(state["ledger"])
        self.round_summaries = [
            RoundSummary(
                round_index=int(entry["round_index"]),
                num_clients=int(entry["num_clients"]),
                client_loss=float(entry["client_loss"]),
                server_loss=float(entry["server_loss"]),
                uploaded_records=int(entry["uploaded_records"]),
                dispersed_records=int(entry["dispersed_records"]),
                participation=(
                    RoundParticipation.from_logs(entry["participation"])
                    if entry.get("participation") is not None else None
                ),
            )
            for entry in state["round_summaries"]
        ]
        self._stale_uploads = [
            {
                "due_round": int(entry["due_round"]),
                "origin_round": int(entry["origin_round"]),
                "staleness": int(entry["staleness"]),
                "upload": ClientUpload(
                    user_id=int(entry["user_id"]),
                    items=np.asarray(entry["items"], dtype=np.int64),
                    scores=np.asarray(entry["scores"], dtype=np.float64),
                    true_positive_items=np.asarray(
                        entry["true_positive_items"], dtype=np.int64
                    ),
                ),
            }
            for entry in state.get("stale_uploads", [])
        ]
        self.last_round_uploads = []

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        k: int = 20,
        max_users: Optional[int] = None,
        batch_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    ) -> RankingResult:
        """Rank with the *server* model (the trained global recommender).

        ``batch_size`` chooses the evaluator's execution path (chunked
        cohort scoring by default, the per-user reference loop with
        ``None``); both return equal results.
        """
        evaluator = RankingEvaluator(self.dataset, k=k)
        return evaluator.evaluate(
            self.server.model, max_users=max_users, batch_size=batch_size
        )

    def evaluate_client_models(
        self,
        k: int = 20,
        max_users: Optional[int] = None,
        batch_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    ) -> RankingResult:
        """Average ranking quality of the clients' local models.

        Not a paper table, but useful for analysis: it shows how much of
        the server's knowledge flows back to the devices via ``D̃_i``.
        Each client model scores its own catalogue (the model holds a
        single user row, index 0) and the evaluator grades the scores
        against that user's held-out items.

        With the default ``batch_size``, cohorts of client models are
        stacked into one vectorized forward over the full catalogue
        (:func:`repro.engine.batch.stack_models` — the same machinery the
        execution engine trains them with) where the client architecture
        supports it; ``batch_size=None`` runs the per-user reference path.
        Both paths return equal results.
        """
        evaluator = RankingEvaluator(self.dataset, k=k)
        users = sorted(self.clients)
        if batch_size is None:
            return evaluator.evaluate_per_user_scores(
                lambda user: self.clients[user].model.score_all_items(0),
                users=users,
                max_users=max_users,
            )
        return evaluator.evaluate_score_matrices(
            self._client_score_matrix,
            users=users,
            max_users=max_users,
            batch_size=batch_size,
        )

    def _client_score_matrix(self, users: np.ndarray) -> np.ndarray:
        """Full-catalogue score rows for a cohort of clients' local models.

        Stacks the cohort's models (each holds a single user row, index 0)
        and scores every item with one vectorized forward; architectures
        without a stacked implementation fall back to per-model scoring,
        which produces the identical matrix one row at a time.
        """
        models = [self.clients[int(user)].model for user in users]
        stacked = stack_models(models, user_rows=[0] * len(models))
        if stacked is None:
            return np.stack([model.score_all_items(0) for model in models])
        num_items = self.dataset.num_items
        items = np.tile(np.arange(num_items, dtype=np.int64), (len(models), 1))
        with no_grad():
            scores = stacked.forward(items, training=False)
        return np.asarray(scores.numpy(), dtype=np.float64)

    def audit_privacy(self, guess_ratio: float = 0.2) -> AttackReport:
        """Run the Top Guess Attack against the most recent round's uploads."""
        attack = TopGuessAttack(guess_ratio=guess_ratio)
        return attack.audit_round(self.last_round_uploads)

    def average_client_round_kilobytes(self) -> float:
        """Average per-client per-round communication in KB (Table IV)."""
        return self.ledger.average_client_round_kilobytes()
