"""The round loop both protocol families share (Algorithm 1's outer loop).

Every round of every federated driver is planned the same way: select a
cohort from the driver's selection stream, let the
:class:`~repro.scenario.ScenarioEngine` split it into on-time, churned,
lost and stale clients, and run the family's round hook on that plan.
With the default (disabled) scenario the plan makes no RNG draw and puts
every selected client on time, so a plain round needs no separate path.

:class:`RoundDriver` holds what the families share: the ledger, the
execution engine, the scenario engine, client selection, the FIFO stale
buffer and :meth:`fit`.  What stays per family is the round hook:
PTF-FedRec uploads predictions, trains the server and disperses
(:class:`repro.core.PTFFedRec`), while the FedAvg baselines aggregate
parameter deltas (:class:`repro.federated.ParameterTransmissionFedRec`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.data.dataset import InteractionDataset
from repro.engine import create_scheduler
from repro.federated.communication import CommunicationLedger
from repro.scenario import RoundParticipation, RoundPlan, ScenarioEngine
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.callbacks import Callback
    from repro.experiments.spec import ExperimentSpec


class RoundDriver:
    """Shared state and round planning for the federated drivers.

    Every driver is configured by an
    :class:`~repro.experiments.ExperimentSpec` (``None`` gives the
    defaults for the driver's :attr:`trainer`), kept as :attr:`spec`;
    ``spec.protocol.rounds`` and ``client_fraction`` are read, live,
    every round.  Subclasses provide :meth:`run_round` and a
    ``rounds_completed`` count, and override :meth:`_round_logs` when
    :meth:`run_round` returns something other than a logs dict.
    """

    #: Named RNG stream the per-round client selection draws from.
    selection_stream = "client-selection"
    #: The registry name of the trainer whose specs this driver accepts.
    trainer = ""

    def __init__(
        self,
        dataset: InteractionDataset,
        spec: Optional["ExperimentSpec"] = None,
    ):
        # Imported here: repro.core's package init imports this module.
        from repro.core.config import ensure_spec

        self.spec = ensure_spec(spec, self.trainer)
        self.dataset = dataset
        self._rngs = RngFactory(self.spec.seed)
        self.ledger = CommunicationLedger()
        self.engine = create_scheduler(self.spec.engine)
        self.scenario = ScenarioEngine(
            self.spec.scenario, self._rngs, dataset.users, dataset.num_items
        )
        # Buffered late payloads (async aggregation), oldest first: each
        # entry carries ``due_round``, ``origin_round`` and ``staleness``
        # plus the family's payload; serialized with the checkpoint so
        # resume folds them into the same rounds.
        self._stale_buffer: List[Dict[str, Any]] = []

    def run_round(self, round_index: int):
        raise NotImplementedError

    def _round_logs(self, result) -> Dict[str, float]:
        """The callback ``logs`` of one :meth:`run_round` result."""
        return result

    # ------------------------------------------------------------------
    # Round planning
    # ------------------------------------------------------------------
    def _select_clients(self, round_index: int) -> List[int]:
        users = self.dataset.users
        fraction = self.spec.protocol.client_fraction
        if fraction >= 1.0:
            return users
        rng = self._rngs.spawn_indexed(self.selection_stream, round_index)
        count = max(1, int(round(fraction * len(users))))
        return sorted(rng.choice(users, size=count, replace=False).tolist())

    def _plan_round(self, round_index: int) -> RoundPlan:
        """Select this round's cohort and draw its participation events."""
        return self.scenario.plan_round(self._select_clients(round_index), round_index)

    def _pop_due(self, round_index: int) -> List[Dict[str, Any]]:
        """Remove and return the buffered payloads due by ``round_index``, FIFO."""
        due = [e for e in self._stale_buffer if int(e["due_round"]) <= round_index]
        self._stale_buffer = [
            e for e in self._stale_buffer if int(e["due_round"]) > round_index
        ]
        return due

    def _participation(
        self, plan: RoundPlan, stale_applied: int
    ) -> Optional[RoundParticipation]:
        """The round's participation counts; ``None`` when no scenario is set,
        so a plain round's logs keep their schema."""
        if not self.scenario.enabled:
            return None
        return RoundParticipation(
            selected=len(plan.selected),
            completed=len(plan.on_time),
            dropped=len(plan.dropped) + len(plan.lost),
            straggled=len(plan.stale) + len(plan.lost),
            stale_applied=stale_applied,
        )

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        rounds: Optional[int] = None,
        callbacks: Optional[Sequence["Callback"]] = None,
    ):
        """Run the configured number of rounds (or ``rounds`` more).

        ``callbacks`` receive the shared training hooks
        (``on_round_start``, ``on_round_end`` with the round's metrics,
        ``on_fit_end``) and may stop the run early (see
        :mod:`repro.experiments.callbacks`).
        """
        from repro.experiments.callbacks import CallbackList
        from repro.tensor.backend import use_backend

        hooks = CallbackList(callbacks)
        total = rounds if rounds is not None else self.spec.protocol.rounds
        start = self.rounds_completed
        hooks.on_fit_start(self)
        with use_backend(self.spec.backend):
            for round_index in range(start, start + total):
                hooks.on_round_start(self, round_index)
                logs = self._round_logs(self.run_round(round_index))
                hooks.on_round_end(self, round_index, logs)
                if hooks.should_stop:
                    break
        hooks.on_fit_end(self)
        return self
