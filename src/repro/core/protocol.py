"""End-to-end driver for the PTF-FedRec learning protocol (Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

# repro: disable=backend-purity -- the PTF wire format exchanges plain prediction arrays, not tensors
import numpy as np

from repro.core.attack import AttackReport, TopGuessAttack
from repro.core.client import ClientUpload, PTFClient
from repro.core.server import PTFServer
from repro.data.dataset import InteractionDataset
from repro.engine.batch import stack_models
from repro.eval.ranking import RankingEvaluator, RankingResult
from repro.eval.scoring import DEFAULT_CHUNK_SIZE
from repro.tensor import no_grad
from repro.federated.communication import prediction_triple_bytes
from repro.federated.driver import RoundDriver
from repro.scenario import RoundParticipation

if TYPE_CHECKING:  # pragma: no cover - typing only
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


class PTFFedRec(RoundDriver):
    """The parameter transmission-free federated recommender system.

    Orchestrates clients and the central server through the four-step loop
    of Algorithm 1: client local training, privacy-preserving prediction
    upload, server training on the pooled uploads, and confidence-based
    hard dispersal back to the clients.  Communication (prediction triples
    in both directions, nothing else) is metered in :attr:`ledger`.

    Configured by a :class:`repro.experiments.ExperimentSpec` (``None``
    uses the paper's defaults).  The spec's ``engine`` section chooses how
    the per-round client work is executed (serial reference loop or
    vectorized batches); both schedulers are bit-identical on a fixed
    seed.  ``engine.shard_size`` additionally streams the cohort (training
    and the dispersal fan-out) through bounded shards; ``engine.payload``
    is a no-op here — the protocol's whole point is that its exchange
    (prediction triples) is already sparse.
    """

    name = "PTF-FedRec"
    trainer = "ptf"
    selection_stream = "protocol-client-selection"

    def __init__(
        self,
        dataset: InteractionDataset,
        spec: Optional["ExperimentSpec"] = None,
    ):
        from repro.tensor.backend import use_backend

        super().__init__(dataset, spec)
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
        self.round_summaries: List[RoundSummary] = []
        self.last_round_uploads: List[ClientUpload] = []

    @property
    def rounds_completed(self) -> int:
        return len(self.round_summaries)

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundSummary:
        """Execute one global round and return its summary.

        The client-side work (local training, upload construction, and the
        consumption of the server's dispersal fan-out) runs through the
        configured execution engine; the scheduler choice never changes the
        numbers, only how fast they are produced.

        The round follows its :class:`~repro.scenario.RoundPlan`, which puts
        every selected client on time unless a scenario is configured.
        Churned clients do nothing; stragglers train and build their
        upload, but it misses the server's aggregation — discarded in sync
        mode, buffered until ``round_index + staleness`` in async mode.  A
        buffered upload folds in with staleness-decayed weight
        ``alpha / (staleness + 1)``, realized as deterministic record
        subsampling (the server trains on ``max(1, round(weight * n))`` of
        its ``n`` records, drawn from the dedicated ``"scenario-staleness"``
        stream), so stale knowledge still arrives but moves the server
        proportionally less.  The server disperses back to every client
        whose upload reached this round — on-time and freshly-arrived stale
        ones — restricted to the items that have streamed into the
        catalogue so far.
        """
        plan = self._plan_round(round_index)

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
            self._stale_buffer.append({
                "due_round": round_index + plan.stale[user],
                "origin_round": round_index,
                "staleness": plan.stale[user],
                "upload": upload,
            })
        applied_uploads = [
            self._decayed_upload(
                entry["upload"], int(entry["staleness"]), int(entry["origin_round"])
            )
            for entry in self._pop_due(round_index)
        ]

        pool = uploads + applied_uploads
        server_loss = self.server.train_on_uploads(pool, round_index)

        # Stream the dispersal fan-out shard by shard: dispersal
        # construction reads only server state, so applying one shard
        # before building the next bounds the in-flight dispersal buffer
        # at O(shard_size) without changing a single record.  The server
        # model stays in eval mode throughout, so a graph model propagates
        # once per round and serves every client from its cache (a mode
        # flip per prediction would drop that cache each time).
        dispersed_total = 0
        item_mask = self.scenario.arrived_item_mask(round_index)
        server_model = self.server.model
        was_training = server_model.training
        if was_training:
            server_model.eval()
        try:
            for upload_shard in self.engine.iter_shards(pool):
                dispersals = self.engine.build_ptf_dispersals(
                    self.server, upload_shard, round_index, item_mask=item_mask
                )
                for dispersal in dispersals:
                    self.clients[dispersal.user_id].receive_dispersal(
                        dispersal.items, dispersal.scores
                    )
                    dispersed_total += dispersal.num_records
                    self.ledger.record(
                        round_index,
                        dispersal.user_id,
                        "download",
                        prediction_triple_bytes(dispersal.num_records),
                        description="server dispersed predictions",
                    )
        finally:
            if was_training:
                server_model.train(True)

        summary = RoundSummary(
            round_index=round_index,
            num_clients=len(plan.selected),
            client_loss=float(np.mean(client_losses)) if client_losses else 0.0,
            server_loss=server_loss,
            uploaded_records=sum(upload.num_records for upload in pool),
            dispersed_records=dispersed_total,
            participation=self._participation(plan, len(applied_uploads)),
        )
        self.round_summaries.append(summary)
        self.last_round_uploads = pool
        return summary

    def _round_logs(self, summary: RoundSummary) -> Dict[str, float]:
        return summary.as_logs()

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
                for entry in self._stale_buffer
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
        self._stale_buffer = [
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
