"""Deterministic fault-event planning for dynamic-federation rounds.

The :class:`ScenarioEngine` turns a :class:`~repro.scenario.spec.ScenarioSpec`
into concrete per-round events: which selected clients have arrived yet,
which churn out mid-round, which miss the deadline and with how much
staleness.  The protocol drivers ask it for a :class:`RoundPlan` at the
top of every round and execute the plan through whatever execution
scheduler the run configured — the engine itself never trains anything.

Determinism contract
--------------------

* Every event is drawn from a dedicated :class:`~repro.utils.rng.RngFactory`
  stream — ``"scenario-dropout"``, ``"scenario-latency"``,
  ``"scenario-arrivals"`` — keyed by ``(seed, stream, client, round)``.
  A round's per-client draws come from one
  :meth:`~repro.utils.rng.RngFactory.random_indexed` call per stream,
  ``==`` to drawing each client's ``spawn_indexed`` stream in turn.
  Client selection, batch sampling, upload privacy and model
  initialization keep their existing streams untouched, so enabling a
  fault never perturbs any other randomness.
* Events depend only on ``(seed, spec, client id, round index)``, never on
  execution order: both schedulers see the same event stream, and a
  checkpoint resume replays the remaining rounds' events bit-identically
  (the stream is re-derived, not stored).
* With the default (disabled) spec :meth:`ScenarioEngine.plan_round`
  makes no draw and puts every selected client on time, so the drivers'
  single round body computes exactly what a scenario-free round would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# repro: disable=backend-purity -- fault-event draws and arrival masks are ndarray bookkeeping
import numpy as np

from repro.scenario.spec import ScenarioSpec
from repro.utils.rng import RngFactory

#: Stride mixing the client id into per-(client, round) stream keys; the
#: same convention the protocol's upload/training streams use.
_KEY_STRIDE = 1_000_003


@dataclass(frozen=True)
class RoundPlan:
    """One round's participation events, in cohort (selection) order.

    ``selected`` is the arrived cohort (what the round's ``selected``
    telemetry counts); ``pending`` are selected users that have not
    streamed in yet.  ``on_time + dropped + lost + stale`` partitions
    ``selected``: ``lost`` are stragglers whose payload is discarded
    (sync mode, or staleness beyond the bound), ``stale`` maps async
    stragglers to their staleness in rounds.
    """

    round_index: int
    selected: Tuple[int, ...]
    pending: Tuple[int, ...]
    on_time: Tuple[int, ...]
    dropped: Tuple[int, ...]
    lost: Tuple[int, ...]
    stale: Dict[int, int]

    @property
    def trained(self) -> Tuple[int, ...]:
        """Clients that run local training this round, in cohort order.

        Dropped (churned) clients do no work; stragglers *do* train —
        their device finished the local epochs, only the upload missed
        the deadline.
        """
        skip = set(self.dropped)
        return tuple(user for user in self.selected if user not in skip)

    def stale_groups(self) -> List[Tuple[int, List[int]]]:
        """Async stragglers grouped by staleness, ``(staleness, users)``.

        Groups are ordered by staleness and users stay in cohort order, so
        the drivers' buffer-append order is deterministic.
        """
        groups: Dict[int, List[int]] = {}
        for user in self.selected:
            staleness = self.stale.get(user)
            if staleness is not None:
                groups.setdefault(staleness, []).append(user)
        return sorted(groups.items())


class ScenarioEngine:
    """Plans one run's dynamic-participation events deterministically.

    Stateless across rounds: arrival schedules are derived once from the
    ``"scenario-arrivals"`` stream at construction, and per-round events
    are re-derived from ``(seed, stream, client, round)`` on demand — so a
    restored checkpoint rebuilds the identical engine from the spec alone.
    (The *payload* buffers async aggregation needs are state, and live in
    the protocol drivers' ``state_dict``.)
    """

    def __init__(
        self,
        spec: Optional[ScenarioSpec],
        rngs: RngFactory,
        users: Sequence[int],
        num_items: int,
    ):
        self.spec = spec if spec is not None else ScenarioSpec()
        self._rngs = rngs
        self.users = [int(user) for user in users]
        self.num_items = int(num_items)

        # Arrival schedules: one draw order (late users, their rounds, late
        # items, their rounds) so the whole schedule is a pure function of
        # (seed, spec).  Users/items not in the map arrived at round 0.
        self._user_arrivals: Dict[int, int] = {}
        self._item_arrivals: Optional[np.ndarray] = None
        if self.spec.user_arrival_fraction > 0.0 or self.spec.item_arrival_fraction > 0.0:
            rng = rngs.spawn("scenario-arrivals")
            if self.spec.user_arrival_fraction > 0.0:
                pool = np.asarray(sorted(self.users), dtype=np.int64)
                count = int(round(self.spec.user_arrival_fraction * pool.size))
                count = min(count, pool.size)
                if count:
                    late = np.sort(rng.choice(pool, size=count, replace=False))
                    rounds = rng.integers(
                        1, self.spec.user_arrival_rounds + 1, size=count
                    )
                    self._user_arrivals = {
                        int(user): int(round_index)
                        for user, round_index in zip(late, rounds)
                    }
            if self.spec.item_arrival_fraction > 0.0:
                count = int(round(self.spec.item_arrival_fraction * self.num_items))
                count = min(count, self.num_items)
                if count:
                    arrivals = np.zeros(self.num_items, dtype=np.int64)
                    late = np.sort(
                        rng.choice(self.num_items, size=count, replace=False)
                    )
                    arrivals[late] = rng.integers(
                        1, self.spec.item_arrival_rounds + 1, size=count
                    )
                    self._item_arrivals = arrivals

    @property
    def enabled(self) -> bool:
        """Whether any fault is configured (see :attr:`ScenarioSpec.enabled`)."""
        return self.spec.enabled

    def staleness_weight(self, staleness: int) -> float:
        """Aggregation weight of a payload ``staleness`` rounds late."""
        return self.spec.staleness_weight(staleness)

    # ------------------------------------------------------------------
    # Streaming arrivals
    # ------------------------------------------------------------------
    def user_arrival_round(self, user: int) -> int:
        """The round index from which ``user`` participates (0 = always)."""
        return self._user_arrivals.get(int(user), 0)

    def arrived_user_set(self, round_index: int) -> set:
        """Users that have arrived by the end of round ``round_index``.

        ``round_index=-1`` (before any round) returns the round-0 cohort.
        """
        horizon = max(int(round_index), 0)
        return {
            user for user in self.users if self.user_arrival_round(user) <= horizon
        }

    def arrived_item_mask(self, round_index: int) -> Optional[np.ndarray]:
        """Boolean catalogue mask of items arrived by ``round_index``.

        ``None`` when item streaming is disabled, so callers on the
        hot path can skip masking entirely (and stay bit-identical).
        """
        if self._item_arrivals is None:
            return None
        return self._item_arrivals <= max(int(round_index), 0)

    def arrivals_in_round(self, round_index: int) -> Tuple[List[int], int]:
        """``(users, num_items)`` that stream in exactly at ``round_index``."""
        users = sorted(
            user for user, r in self._user_arrivals.items() if r == int(round_index)
        )
        items = 0
        if self._item_arrivals is not None:
            items = int(np.count_nonzero(self._item_arrivals == int(round_index)))
        return users, items

    # ------------------------------------------------------------------
    # Round planning
    # ------------------------------------------------------------------
    def plan_round(self, selected: Sequence[int], round_index: int) -> RoundPlan:
        """Draw this round's events for an already-selected cohort.

        ``selected`` must be the *unfiltered* output of the driver's client
        selection — the engine filters unarrived users here, after the
        selection stream already advanced, so arrivals never perturb which
        clients the selection RNG picks.
        """
        spec = self.spec
        cohort = np.fromiter((int(user) for user in selected), dtype=np.int64)
        if self._user_arrivals:
            arrival = np.fromiter(
                (self._user_arrivals.get(user, 0) for user in cohort.tolist()),
                dtype=np.int64, count=cohort.size,
            )
            arrived = cohort[arrival <= round_index]
            pending = cohort[arrival > round_index]
        else:
            arrived, pending = cohort, cohort[:0]

        # One keyed draw per (stream, client, round), for the whole arrived
        # cohort at once; only dropout survivors draw a latency.
        keys = arrived * _KEY_STRIDE + round_index
        dropped = np.zeros(arrived.size, dtype=bool)
        if spec.dropout > 0.0:
            dropped = self._rngs.random_indexed("scenario-dropout", keys) < spec.dropout
        staleness = np.zeros(arrived.size, dtype=np.int64)
        if spec.deadline > 0.0:
            low, high = spec.latency_range
            survivors = np.flatnonzero(~dropped)
            latency = low + (high - low) * self._rngs.random_indexed(
                "scenario-latency", keys[survivors]
            )
            late = latency > spec.deadline
            staleness[survivors[late]] = (
                np.ceil(latency[late] / spec.deadline).astype(np.int64) - 1
            )
        # Dropped clients keep staleness 0, so only stragglers are stale.
        on_time = ~dropped & (staleness == 0)
        stale = spec.asynchronous & (staleness > 0) & (staleness <= spec.max_staleness)
        lost = ~(dropped | on_time | stale)

        return RoundPlan(
            round_index=int(round_index),
            selected=tuple(arrived.tolist()),
            pending=tuple(pending.tolist()),
            on_time=tuple(arrived[on_time].tolist()),
            dropped=tuple(arrived[dropped].tolist()),
            lost=tuple(arrived[lost].tolist()),
            stale=dict(zip(arrived[stale].tolist(), staleness[stale].tolist())),
        )
