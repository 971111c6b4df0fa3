"""Per-round and per-run participation telemetry for scenario runs.

Every scenario-enabled round reports how its cohort actually behaved —
who was selected, who finished on time, who churned, who straggled, and
how many buffered stale payloads folded in.  The counts ride along in the
round's ``logs`` (and therefore in each
:class:`~repro.experiments.result.RoundRecord`), and
:class:`ParticipationSummary` totals them for the
:class:`~repro.experiments.result.RunResult`, so scenario runs are
observable, serializable and chartable without re-deriving anything from
the event streams.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Mapping

#: The metric keys a scenario round adds to its ``logs``; also the columns
#: of :class:`ParticipationSummary`.
PARTICIPATION_KEYS = ("selected", "completed", "dropped", "straggled", "stale_applied")


@dataclass(frozen=True)
class RoundParticipation:
    """How one round's cohort behaved.

    ``selected``
        Cohort size after client selection and arrival filtering — the
        clients that were actually asked to work this round.
    ``completed``
        Clients whose payload made this round's aggregation on time.
    ``dropped``
        Clients that contributed nothing: churned mid-round, or missed
        the deadline with the payload discarded (sync mode, or beyond
        ``max_staleness``).
    ``straggled``
        Clients that missed the round deadline (whether their payload was
        buffered for a later round or discarded).
    ``stale_applied``
        Buffered payloads from *earlier* rounds folded into this round's
        aggregation with staleness-decayed weight.
    """

    selected: int = 0
    completed: int = 0
    dropped: int = 0
    straggled: int = 0
    stale_applied: int = 0

    def as_logs(self) -> Dict[str, int]:
        """The counts as round-``logs`` entries (keys in
        :data:`PARTICIPATION_KEYS`)."""
        return {key: int(getattr(self, key)) for key in PARTICIPATION_KEYS}

    @classmethod
    def from_logs(cls, logs: Mapping[str, Any]) -> "RoundParticipation":
        """Inverse of :meth:`as_logs` (missing keys count zero)."""
        return cls(**{key: int(logs.get(key, 0)) for key in PARTICIPATION_KEYS})


@dataclass(frozen=True)
class ParticipationSummary:
    """Whole-run participation totals (the sum of every round's counts)."""

    rounds: int = 0
    selected: int = 0
    completed: int = 0
    dropped: int = 0
    straggled: int = 0
    stale_applied: int = 0

    @classmethod
    def from_history(cls, records: Iterable) -> "ParticipationSummary":
        """Total the participation counts over a run's round records.

        ``records`` is the :attr:`RunResult.history` list; rounds that
        carry no participation counts (e.g. the history prefix of a run
        that enabled the scenario only after a resume) contribute nothing.
        """
        totals = {key: 0 for key in PARTICIPATION_KEYS}
        rounds = 0
        for record in records:
            metrics = getattr(record, "metrics", record)
            if not any(key in metrics for key in PARTICIPATION_KEYS):
                continue
            rounds += 1
            for key in PARTICIPATION_KEYS:
                totals[key] += int(metrics.get(key, 0))
        return cls(rounds=rounds, **totals)

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe dict representation."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParticipationSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(**{f.name: int(data[f.name]) for f in fields(cls)})

    @property
    def completion_rate(self) -> float:
        """On-time completions as a fraction of selections (0 when idle)."""
        if self.selected == 0:
            return 0.0
        return self.completed / self.selected
