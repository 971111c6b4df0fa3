"""PTF-FedRec's mode vocabularies and config normalization.

The configuration itself is :class:`repro.experiments.ExperimentSpec`; this
module keeps the defense and dispersal vocabularies its sections validate
against, and :func:`ensure_spec`, which every training system calls on its
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


def ensure_spec(config: Optional[object], trainer: str = "ptf") -> "ExperimentSpec":
    """Normalize a training component's ``config`` argument to an :class:`ExperimentSpec`.

    Every training system (:class:`~repro.core.protocol.PTFFedRec`, its
    client and server, the FedAvg baselines and
    :class:`~repro.centralized.CentralizedTrainer`) calls this, so each
    accepts an ``ExperimentSpec`` or ``None`` — the defaults of
    ``ExperimentSpec(trainer=trainer)``.  A spec naming a different
    trainer is rejected: the system keeps it as ``.spec``, and a
    checkpoint of the system would otherwise restore the wrong family.
    """
    from repro.experiments.spec import ExperimentSpec

    if config is None:
        return ExperimentSpec(trainer=trainer)
    if not isinstance(config, ExperimentSpec):
        raise TypeError(
            f"config must be an ExperimentSpec or None, got {type(config).__name__}"
        )
    if config.trainer.strip().lower() != trainer:
        raise ValueError(
            f"this system trains {trainer!r}, but the spec names trainer "
            f"{config.trainer!r}"
        )
    return config
