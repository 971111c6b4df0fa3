"""Versioned training checkpoints: save, load, restore, resume.

A checkpoint is a *directory* holding

* ``manifest.json`` — schema version, trainer name, the originating
  :class:`~repro.experiments.spec.ExperimentSpec`, the run's round history
  so far, dataset identity (shape, fingerprint, split sizes) and the JSON
  twin of the trainer's state tree (see :mod:`repro.artifacts.io`),
* ``arrays.npz`` — every NumPy array of that state tree (model parameters
  and buffers, optimizer moments, ledger columns, dataset splits),
  uncompressed, with per-client arrays stacked into one member per leaf
  path (see :mod:`repro.artifacts.io`).

The dataset's train/test pairs are embedded, so an artifact is
self-contained: :meth:`Checkpoint.restore` can rebuild the exact trainer
with no external inputs, and ``repro.run(spec, resume_from=path)``
continues the run bit-identically to one that was never interrupted
(every random stream in the repository is keyed by ``(seed, component,
round)``, never by wall-clock position, so replaying from restored state
reproduces the uninterrupted arithmetic exactly).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

# repro: disable=backend-purity -- checkpoint payloads are npz ndarrays by schema contract
import numpy as np

from repro.artifacts.io import flatten_state, unflatten_state
from repro.data.dataset import InteractionDataset
from repro.experiments.result import RoundRecord
from repro.experiments.spec import ExperimentSpec

#: Bumped whenever the manifest layout changes incompatibly.  Loaders
#: refuse manifests they do not understand instead of misreading them.
#: Version 2 added the tensor-backend fields (top-level ``backend`` /
#: ``dtype`` and ``spec.backend``) — a v1-only reader cannot parse the new
#: spec dict, so new artifacts must declare 2 to fail cleanly there.
#: Version 3 stacks the arrays that sibling client subtrees share into
#: one ``(clients, ...)`` member each and writes the payload uncompressed;
#: its ``row`` placeholders mean nothing to a v2-only reader.
SCHEMA_VERSION = 3

#: Versions this build can read.  Version 1 (pre-backend) manifests load
#: with the reference float64 backend pinned (see :func:`load_checkpoint`);
#: v1 and v2 placeholders carry no ``row`` and read one member each.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
_MANIFEST_KIND = "repro-checkpoint"


# ----------------------------------------------------------------------
# Dataset identity
# ----------------------------------------------------------------------
def dataset_fingerprint(dataset: InteractionDataset) -> str:
    """Content hash of a dataset's dimensions and exact train/test splits.

    Resuming against a different dataset would silently change every
    client's private data, so checkpoints pin the dataset by fingerprint
    and :meth:`Checkpoint.restore` verifies it.
    """
    digest = hashlib.sha256()
    digest.update(np.asarray([dataset.num_users, dataset.num_items], dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.train_pairs, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.test_pairs, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _dataset_state(dataset: InteractionDataset) -> Dict[str, Any]:
    return {
        "name": dataset.name,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "train_pairs": dataset.train_pairs.copy(),
        "test_pairs": dataset.test_pairs.copy(),
    }


def dataset_from_state(state: Dict[str, Any]) -> InteractionDataset:
    """Rebuild the embedded :class:`InteractionDataset` from its state."""
    return InteractionDataset(
        num_users=int(state["num_users"]),
        num_items=int(state["num_items"]),
        train_pairs=np.asarray(state["train_pairs"]).reshape(-1, 2),
        test_pairs=np.asarray(state["test_pairs"]).reshape(-1, 2),
        name=str(state["name"]),
    )


# ----------------------------------------------------------------------
# The checkpoint object
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """One loaded training checkpoint (see :func:`load_checkpoint`)."""

    schema_version: int
    trainer: str
    spec: ExperimentSpec
    rounds_completed: int
    history: List[RoundRecord]
    state: Dict[str, Any]
    dataset_state: Dict[str, Any] = field(repr=False)
    fingerprint: str
    #: Tensor backend the run computed under, with its parameter dtype —
    #: recorded so the artifact is self-describing even without the spec.
    backend: str = "numpy"
    dtype: str = "float64"

    def dataset(self) -> InteractionDataset:
        """The embedded dataset the checkpointed run was training on."""
        return dataset_from_state(self.dataset_state)

    def restore(
        self,
        dataset: Optional[InteractionDataset] = None,
        spec: Optional[ExperimentSpec] = None,
    ):
        """Rebuild the trainer adapter and load this checkpoint into it.

        ``dataset`` defaults to the embedded one; passing a dataset with a
        different fingerprint raises ``ValueError`` (same reasoning as in
        :func:`dataset_fingerprint`).  ``spec`` lets the caller substitute a
        compatible spec (``repro.run`` uses this to extend a run's rounds);
        it must name the same trainer.
        """
        from repro.experiments.registry import create_trainer

        spec = spec if spec is not None else self.spec
        if spec.trainer != self.trainer:
            raise ValueError(
                f"checkpoint was trained by {self.trainer!r}, cannot restore "
                f"into a {spec.trainer!r} trainer"
            )
        if spec.backend != self.backend:
            raise ValueError(
                f"checkpoint was trained under the {self.backend!r} tensor "
                f"backend ({self.dtype}); restoring under {spec.backend!r} "
                "would silently cast every parameter — the backend is part "
                "of the arithmetic, not an execution choice"
            )
        if dataset is None:
            dataset = self.dataset()
        elif dataset_fingerprint(dataset) != self.fingerprint:
            raise ValueError(
                "dataset fingerprint mismatch: this checkpoint was taken on "
                f"{self.dataset_state['name']!r} "
                f"({self.fingerprint[:12]}…); resuming on different data would "
                "not reproduce the original run"
            )
        adapter = create_trainer(spec, dataset)
        adapter.load_state_dict(self.state)
        return adapter


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def _swap_directory(staging: Path, target: Path) -> None:
    """Move a fully written ``staging`` directory into place at ``target``.

    ``os.replace`` cannot replace a non-empty directory, so an existing
    target is parked aside first and removed only after the rename — a
    reader never sees a half-written artifact, only the old one or the
    new one.
    """
    parked = None
    if target.exists():
        parked = target.with_name(f"{target.name}.old-{os.getpid()}")
        if parked.exists():
            shutil.rmtree(parked)
        os.replace(target, parked)
    os.replace(staging, target)
    if parked is not None:
        shutil.rmtree(parked, ignore_errors=True)


def copy_checkpoint(source: Path, target: Path) -> Path:
    """Duplicate an existing checkpoint directory (atomically, like a save)."""
    source, target = Path(source), Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    shutil.copytree(source, staging)
    _swap_directory(staging, target)
    return target


def _resolve_parts(trainer, spec: Optional[ExperimentSpec]):
    """Accept a trainer adapter *or* a bare system; return (spec, dataset)."""
    spec = spec if spec is not None else getattr(trainer, "spec", None)
    if not isinstance(spec, ExperimentSpec):
        raise ValueError(
            "save_checkpoint needs the originating ExperimentSpec; pass spec=... "
            "when checkpointing an object that carries no .spec"
        )
    dataset = getattr(trainer, "dataset", None)
    if dataset is None:
        raise ValueError("trainer exposes no .dataset; cannot build a self-contained artifact")
    return spec, dataset


def save_checkpoint(
    path: Union[str, Path],
    trainer,
    spec: Optional[ExperimentSpec] = None,
    history: Sequence[RoundRecord] = (),
) -> Path:
    """Write ``trainer``'s full state as a checkpoint directory at ``path``.

    ``trainer`` is anything with ``state_dict()`` and ``.dataset`` — a
    :class:`~repro.experiments.trainers.TrainerAdapter` or one of the
    underlying systems (``PTFFedRec``, the FedAvg baselines,
    ``CentralizedTrainer``).  ``history`` carries the run's per-round
    records so a resumed :class:`~repro.experiments.result.RunResult`
    reports the whole run, not just the resumed tail.
    """
    spec, dataset = _resolve_parts(trainer, spec)
    state = trainer.state_dict()
    # Flattening one combined tree gives every array a namespaced npz key
    # ("state/..." or "dataset/...") with consistent placeholders for free.
    tree, payload = flatten_state({"state": state, "dataset": _dataset_state(dataset)})

    from repro.tensor.backend import get_backend

    manifest = {
        "kind": _MANIFEST_KIND,
        "schema_version": SCHEMA_VERSION,
        "trainer": spec.trainer,
        "backend": spec.backend,
        "dtype": np.dtype(get_backend(spec.backend).dtype).name,
        "spec": spec.to_dict(),
        "rounds_completed": int(state.get("rounds_completed", len(history))),
        "history": [record.to_dict() for record in history],
        "dataset": tree["dataset"],
        "fingerprint": dataset_fingerprint(dataset),
        "state": tree["state"],
        "arrays_file": ARRAYS_NAME,
    }

    # Write into a sibling temp directory and swap it in, so a crash
    # mid-save never leaves a truncated artifact at ``path`` — ``latest/``
    # is the crash-recovery resume target, it must stay loadable.
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        with open(staging / ARRAYS_NAME, "wb") as handle:
            np.savez(handle, **payload)
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, separators=(",", ":")), encoding="utf-8"
        )
        _swap_directory(staging, path)
    finally:
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)
    return path


def _read_manifest_text(path: Path) -> str:
    """Read the manifest's raw text (hook point for the torn-read tests)."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {manifest_path}")
    return manifest_path.read_text(encoding="utf-8")


def _read_arrays(arrays_path: Path, path: Path) -> Dict[str, np.ndarray]:
    """Read every member of the payload, or raise ``ValueError`` if corrupt.

    Every member is read in full, so the zip CRC of each is checked
    (stored members included) before any state is rebuilt.
    """
    try:
        with np.load(arrays_path, allow_pickle=False) as payload:
            return {key: payload[key] for key in payload.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise ValueError(
            f"checkpoint at {path} has a corrupt array payload {arrays_path.name}: {exc}"
        ) from exc


#: Attempts :func:`load_checkpoint` makes against a concurrently rewritten
#: artifact before giving up (each retry restarts from a fresh manifest).
_LOAD_RETRIES = 5


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read a checkpoint directory written by :func:`save_checkpoint`.

    Safe against a concurrent :func:`save_checkpoint` to the same path —
    the background-load path of a serving hot swap, where a trainer keeps
    rewriting ``latest/`` while the gateway loads it.  The directory swap
    is atomic per file, but a reader could still pair the *old* manifest
    with the *new* array payload (or hit the instant between the two
    renames, where the path briefly does not exist).  Both tears are
    detected — the manifest is re-read after the arrays and compared, and
    a transiently missing path is retried — and the load restarts from a
    fresh manifest, so a caller only ever observes a complete old artifact
    or a complete new one.

    A truncated or damaged ``arrays.npz`` raises ``ValueError`` naming the
    checkpoint, chained to the underlying zip error; every member is read
    (and CRC-checked) before any state is rebuilt, so no partial state is
    ever returned.
    """
    path = Path(path)
    manifest_text = _read_manifest_text(path)
    for attempt in range(_LOAD_RETRIES):
        try:
            if manifest_text is None:
                manifest_text = _read_manifest_text(path)
            manifest = json.loads(manifest_text)
            if manifest.get("kind") != _MANIFEST_KIND:
                raise ValueError(f"{path / MANIFEST_NAME} is not a repro checkpoint manifest")
            version = manifest.get("schema_version")
            if version not in SUPPORTED_SCHEMA_VERSIONS:
                raise ValueError(
                    f"unsupported checkpoint schema version {version!r} "
                    f"(this build reads versions {SUPPORTED_SCHEMA_VERSIONS})"
                )
            arrays = _read_arrays(path / manifest["arrays_file"], path)
            reread = _read_manifest_text(path)
        except FileNotFoundError:
            # Mid-swap window: the old directory was parked and the new
            # one not yet renamed in.  Wait out the rename and restart from
            # a fresh manifest; a path still missing then costs one more
            # attempt, like a torn read.
            time.sleep(0.01 * (attempt + 1))
            manifest_text = None
            continue
        if reread == manifest_text:
            break
        # The artifact was replaced between the two reads; the arrays may
        # belong to the new version while the parsed manifest is the old
        # one.  Restart from the fresh manifest.
        manifest_text = reread
    else:
        if manifest_text is None:
            raise FileNotFoundError(
                f"checkpoint at {path} stayed missing across {_LOAD_RETRIES} load attempts"
            )
        raise RuntimeError(
            f"checkpoint at {path} kept changing across {_LOAD_RETRIES} load "
            "attempts; is a writer saving in a tight loop?"
        )
    spec_data = dict(manifest["spec"])
    # Pre-backend manifests carry no backend field: they were written by
    # the float64 reference substrate.  Pin that explicitly — otherwise a
    # spec with backend=None would adopt the *ambient* session backend and
    # a legacy artifact loaded under numpy32 would silently resume in
    # float32, breaking the bit-identical-resume guarantee.
    spec_data.setdefault("backend", "numpy")
    spec = ExperimentSpec.from_dict(spec_data)
    return Checkpoint(
        schema_version=int(version),
        trainer=str(manifest["trainer"]),
        spec=spec,
        rounds_completed=int(manifest["rounds_completed"]),
        history=[RoundRecord.from_dict(entry) for entry in manifest["history"]],
        state=unflatten_state(manifest["state"], arrays),
        dataset_state=unflatten_state(manifest["dataset"], arrays),
        fingerprint=str(manifest["fingerprint"]),
        backend=str(manifest.get("backend", spec.backend)),
        dtype=str(manifest.get("dtype", "float64")),
    )
