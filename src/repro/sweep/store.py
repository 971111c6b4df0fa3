"""Fingerprint-keyed artifact store: the sweep cache.

Every run's :class:`~repro.experiments.result.RunResult` is stored in a
directory named by its fingerprint
(:meth:`repro.experiments.spec.ExperimentSpec.fingerprint` over the spec,
backend and dataset SHA-256), so "has this exact experiment already been
computed" is a single directory lookup — across sweeps, across processes,
across machines sharing a store.

Completion is atomic, mirroring the checkpoint contract of
:mod:`repro.artifacts`: results are written into a sibling temp directory
and ``os.replace``-renamed into the fingerprint slot.  A sweep killed at
any instant leaves either a complete artifact at the slot or only a temp
directory the store ignores — a resume never trusts a half-written result.

The cache trusts the *fingerprint*, which covers the spec, backend and
dataset — not the code that computed the artifact.  After changing
training code, clear the store (or point the sweep at a fresh one); the
benchmarks default to a per-session temp store for exactly this reason.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.result import RunResult

RESULT_NAME = "result.json"
_TMP_PREFIX = ".tmp-"


class ArtifactStore:
    """A directory of completed run artifacts, keyed by fingerprint."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def path(self, fingerprint: str) -> Path:
        """The artifact slot for one fingerprint (exists only if complete)."""
        if not fingerprint or fingerprint.startswith(_TMP_PREFIX) or "/" in fingerprint:
            raise ValueError(f"invalid fingerprint {fingerprint!r}")
        return self.root / fingerprint

    def result_path(self, fingerprint: str) -> Path:
        return self.path(fingerprint) / RESULT_NAME

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def completed(self, fingerprint: str) -> bool:
        """Whether a complete artifact occupies the slot.

        Only a fully written artifact can occupy the slot (writes are
        staged in a temp directory and renamed in), so presence of the
        result file *is* the completion marker.
        """
        return self.result_path(fingerprint).exists()

    def load(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result, or ``None`` when the slot is empty.

        A slot whose result does not parse (a torn or hand-edited file)
        raises ``ValueError`` naming the slot, chained to the parse error.
        """
        path = self.result_path(fingerprint)
        try:
            return RunResult.load(path)
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as error:
            raise ValueError(
                f"sweep artifact {path} is unreadable ({type(error).__name__}: "
                f"{error}); remove it with ArtifactStore.discard({fingerprint!r}) "
                "and re-run the sweep to recompute it"
            ) from error

    def provenance(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The artifact's provenance block (see :meth:`RunResult.save`).

        ``None`` for an empty slot or a pre-provenance artifact.
        """
        path = self.result_path(fingerprint)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return data.get("provenance")

    def fingerprints(self) -> List[str]:
        """Fingerprints of every completed artifact, sorted."""
        if not self.root.exists():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(_TMP_PREFIX)
            and (entry / RESULT_NAME).exists()
        )

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __contains__(self, fingerprint: str) -> bool:
        return self.completed(fingerprint)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def save(self, fingerprint: str, result: RunResult) -> Path:
        """Write ``result`` into the fingerprint slot, atomically.

        The result is staged in a temp directory (named so concurrent
        writers never collide) and renamed into place.  When a concurrent
        writer of the *same* fingerprint wins the rename, its artifact is
        kept — by construction both computed the same result — and the
        staging copy is discarded.
        """
        target = self.path(fingerprint)
        staging = self.root / f"{_TMP_PREFIX}{fingerprint}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            result.save(staging / RESULT_NAME)
            try:
                os.replace(staging, target)
            except OSError:
                # ``os.replace`` cannot replace a non-empty directory: a
                # concurrent writer completed the same fingerprint first.
                if not self.completed(fingerprint):
                    raise
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        return target

    def discard(self, fingerprint: str) -> bool:
        """Remove one artifact (e.g. to force recomputation); True if it existed."""
        target = self.path(fingerprint)
        if target.exists():
            shutil.rmtree(target)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ArtifactStore(root={str(self.root)!r}, completed={len(self)})"
