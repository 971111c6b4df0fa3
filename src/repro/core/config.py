"""PTF-FedRec's mode vocabularies and config normalization.

The configuration itself is :class:`repro.experiments.ExperimentSpec`; this
module keeps the defense and dispersal vocabularies its sections validate
against, and :func:`ensure_spec`, which the core components call on their
``config`` argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.spec import ExperimentSpec

#: Privacy defenses applied to the client's uploaded prediction dataset.
#: ``"none"`` uploads every trained item's prediction (the vulnerable
#: baseline), ``"ldp"`` adds Laplace noise to every score, ``"sampling"``
#: uploads only a random β/γ subset, and ``"sampling+swapping"`` (the
#: paper's full mechanism) additionally swaps a λ fraction of positive
#: scores with negative scores.
DefenseMode = str
DEFENSE_MODES: Tuple[str, ...] = ("none", "ldp", "sampling", "sampling+swapping")

#: Strategies for building the server-dispersed dataset ``D̃_i``.  The
#: paper's method is ``"confidence+hard"``; the Table VII ablations replace
#: one or both components with random items.
DispersalMode = str
DISPERSAL_MODES: Tuple[str, ...] = (
    "confidence+hard",
    "confidence+random",
    "random+hard",
    "random",
)


def ensure_spec(config: Optional[object]) -> "ExperimentSpec":
    """Normalize a core component's ``config`` argument to an :class:`ExperimentSpec`.

    Core components (:class:`~repro.core.client.PTFClient`,
    :class:`~repro.core.server.PTFServer`,
    :class:`~repro.core.protocol.PTFFedRec`) call this so they accept an
    ``ExperimentSpec`` or ``None`` (the paper's defaults).
    """
    from repro.experiments.spec import ExperimentSpec

    if config is None:
        return ExperimentSpec(trainer="ptf")
    if isinstance(config, ExperimentSpec):
        return config
    raise TypeError(
        f"config must be an ExperimentSpec or None, got {type(config).__name__}"
    )
