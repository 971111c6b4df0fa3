"""Periodic checkpointing as a training callback.

Works with every registered trainer because it plugs into the shared hook
protocol (:mod:`repro.experiments.callbacks`): the fit loops hand the
callback the *system* object, whose ``state_dict`` covers the full
training state, and the callback mirrors the run's per-round logs so each
checkpoint carries the complete history up to that round.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.artifacts.checkpoint import copy_checkpoint, save_checkpoint
from repro.experiments.callbacks import Callback
from repro.experiments.result import RoundRecord
from repro.experiments.spec import ExperimentSpec


class CheckpointEveryK(Callback):
    """Save a checkpoint every ``every`` rounds (and once at fit end).

    ``directory`` receives one subdirectory per checkpoint
    (``round-0004/``...) plus ``latest/``, which is rewritten on every
    save so a resuming caller never has to list the directory.

    ``spec`` may be omitted when the trained system carries its spec
    (PTF-FedRec does); the runner injects it automatically for callbacks
    it wires into ``repro.run``.  :attr:`saved_paths` records every
    checkpoint written, in order.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        every: int = 1,
        spec: Optional[ExperimentSpec] = None,
        save_on_fit_end: bool = True,
    ):
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.spec = spec
        self.save_on_fit_end = save_on_fit_end
        self.saved_paths: List[Path] = []
        self._records: List[RoundRecord] = []
        self._seeded: List[RoundRecord] = []

    def seed_history(self, records: Sequence[RoundRecord]) -> None:
        """Pre-load history from an earlier run segment (used on resume)."""
        self._seeded = list(records)
        self._records = list(records)

    def on_fit_start(self, trainer) -> None:
        self._records = list(self._seeded)

    def on_round_end(self, trainer, round_index: int, logs: Dict[str, float]) -> None:
        self._records.append(RoundRecord(round_index, dict(logs)))
        if (round_index + 1) % self.every == 0:
            self._save(trainer, self.directory / f"round-{round_index:04d}")

    def on_fit_end(self, trainer) -> None:
        if self.save_on_fit_end:
            self._save(trainer, self.directory / "final")

    def _save(self, trainer, path: Path) -> None:
        saved = save_checkpoint(path, trainer, spec=self.spec, history=self._records)
        # ``latest`` is a file copy of the checkpoint just written — don't
        # gather and serialize the whole trainer state a second time.
        copy_checkpoint(saved, self.directory / "latest")
        self.saved_paths.append(saved)
