"""Configuration for dynamic-federation fault injection.

A :class:`ScenarioSpec` is the ``scenario={...}`` section of an
:class:`~repro.experiments.spec.ExperimentSpec`, which every federated
driver takes.  It describes *which* dynamic-participation events a
simulated deployment injects:

* **churn** — each selected client independently drops out mid-round with
  probability ``dropout`` and contributes nothing,
* **stragglers** — each surviving client draws a latency from
  ``latency_range``; clients slower than ``deadline`` miss the round's
  aggregation.  Under ``aggregation="sync"`` their payload is discarded;
  under ``aggregation="async"`` it is buffered and folded into the round
  it arrives in, weighted ``staleness_alpha / (staleness + 1)`` and
  bounded by ``max_staleness``,
* **streaming arrivals** — a ``user_arrival_fraction`` of users (and an
  ``item_arrival_fraction`` of catalogue items) is held back at round 0
  and arrives over the first ``*_arrival_rounds`` rounds.

The default spec injects nothing: every trainer and every execution
scheduler is bit-identical to a scenario-free run (its round plans make
no draw and put every selected client on time).  With faults enabled,
all events are drawn from dedicated RNG streams (``"scenario-dropout"``,
``"scenario-latency"``, ``"scenario-arrivals"``) keyed by ``(seed,
stream, client, round)``, so the injected event stream is reproducible,
independent of the execution scheduler, and never perturbs client
selection, batch sampling or model initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: How late payloads relate to the round they missed.  ``"sync"`` discards
#: them (partial aggregation over the on-time cohort); ``"async"`` buffers
#: them and folds them into a later round with staleness-decayed weight.
AGGREGATION_MODES: Tuple[str, ...] = ("sync", "async")


def _as_float_pair(value) -> Tuple[float, float]:
    pair = tuple(float(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"expected a (low, high) pair, got {value!r}")
    return pair


@dataclass
class ScenarioSpec:
    """Knobs for churn, stragglers, async aggregation and arrivals.

    ``dropout``
        Per-round probability that a selected client churns mid-round.
    ``latency_range``
        ``(low, high)`` of the uniform per-client round latency draw, in
        the same (arbitrary) time unit as ``deadline``.
    ``deadline``
        Round deadline; ``0`` disables straggler simulation entirely.  A
        client whose drawn latency exceeds the deadline straggles with
        staleness ``ceil(latency / deadline) - 1`` rounds.
    ``aggregation``
        One of :data:`AGGREGATION_MODES`.  ``"sync"`` drops straggler
        payloads; ``"async"`` folds them into the round they arrive in.
    ``staleness_alpha``
        Numerator of the async staleness weight ``alpha / (staleness + 1)``
        applied to buffered payloads when they fold in (on-time payloads
        always carry weight 1).
    ``max_staleness``
        Bounded staleness: a payload that would arrive more than this many
        rounds late is discarded instead of buffered.
    ``user_arrival_fraction`` / ``user_arrival_rounds``
        Fraction of users held back at round 0, streaming in uniformly over
        rounds ``1..user_arrival_rounds``.  Unarrived users are filtered
        out of every round's cohort *after* client selection, so the
        selection RNG stream is untouched.
    ``item_arrival_fraction`` / ``item_arrival_rounds``
        Same for catalogue items.  Unarrived items are excluded from the
        PTF server's dispersal candidates and from the serving catalogue
        (client-side interaction data is static and is not gated).
    """

    dropout: float = 0.0
    latency_range: Tuple[float, float] = (0.0, 0.0)
    deadline: float = 0.0
    aggregation: str = "sync"
    staleness_alpha: float = 0.5
    max_staleness: int = 2
    user_arrival_fraction: float = 0.0
    user_arrival_rounds: int = 1
    item_arrival_fraction: float = 0.0
    item_arrival_rounds: int = 1

    def __post_init__(self) -> None:
        self.latency_range = _as_float_pair(self.latency_range)
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError(f"dropout must be in [0, 1], got {self.dropout}")
        low, high = self.latency_range
        if not 0.0 <= low <= high:
            raise ValueError(
                f"latency_range must satisfy 0 <= low <= high, got {self.latency_range}"
            )
        if self.deadline < 0.0:
            raise ValueError(f"deadline must be non-negative, got {self.deadline}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, got {self.aggregation!r}"
            )
        if self.staleness_alpha <= 0.0:
            raise ValueError(
                f"staleness_alpha must be positive, got {self.staleness_alpha}"
            )
        if self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be non-negative, got {self.max_staleness}"
            )
        for name in ("user_arrival_fraction", "item_arrival_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        for name in ("user_arrival_rounds", "item_arrival_rounds"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def enabled(self) -> bool:
        """Whether this spec injects any event at all.

        Disabled specs guarantee bit-identical behavior to a scenario-free
        run: their round plans make no draw, put every selected client on
        time, and the rounds log no participation counts.
        """
        return (
            self.dropout > 0.0
            or self.deadline > 0.0
            or self.user_arrival_fraction > 0.0
            or self.item_arrival_fraction > 0.0
        )

    @property
    def asynchronous(self) -> bool:
        """Whether late payloads are buffered instead of discarded."""
        return self.aggregation == "async"

    def staleness_weight(self, staleness: int) -> float:
        """The aggregation weight of a payload ``staleness`` rounds late."""
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        if staleness == 0:
            return 1.0
        return self.staleness_alpha / (staleness + 1.0)
