"""Configuration for the client-simulation execution engine.

An :class:`EngineSpec` is the ``engine={...}`` section of an
:class:`~repro.experiments.spec.ExperimentSpec`.  It chooses *how* the
per-round client work is executed — it never changes *what* is computed:
every scheduler is bit-identical to the serial reference path on a fixed
seed, because all client randomness is spawned from
``(seed, component, client, round)`` and never from execution order.

Example — select the vectorized scheduler and bound cohort memory:

>>> spec = EngineSpec(scheduler="batched", shard_size=64)
>>> spec.scheduler
'batched'
>>> EngineSpec(scheduler="teleport")
Traceback (most recent call last):
    ...
ValueError: scheduler must be one of ('serial', 'batched'), got 'teleport'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The available execution strategies.  ``"serial"`` is the reference
#: per-client Python loop; ``"batched"`` stacks the cohort's local training
#: into vectorized tensor ops (see :mod:`repro.engine.batch`).
SCHEDULER_MODES: Tuple[str, ...] = ("serial", "batched")

#: The available parameter-exchange formats for the FedAvg-style baselines.
#: ``"dense"`` ships and aggregates full public tables per client (the
#: original protocol simulation); ``"sparse"`` exchanges rows-touched
#: :class:`~repro.tensor.sparse.SparseDelta` payloads — bit-identical
#: results, bounded per-client memory and faithful communication metering.
PAYLOAD_FORMATS: Tuple[str, ...] = ("dense", "sparse")


@dataclass
class EngineSpec:
    """How one round's client work is scheduled and executed.

    ``scheduler``
        One of :data:`SCHEDULER_MODES`.  All schedulers produce bit-identical
        results on the same seed; they differ only in speed and footprint.
    ``payload``
        One of :data:`PAYLOAD_FORMATS`.  ``"sparse"`` makes the FedAvg-style
        drivers exchange rows-touched :class:`~repro.tensor.sparse.SparseDelta`
        payloads instead of full public tables — bit-identical training
        results, but per-client intermediates shrink from ``O(table)`` to
        ``O(rows touched)`` and the communication ledger meters what is
        actually sent.  The PTF protocol's exchange (prediction triples) is
        natively sparse, so the knob is a no-op there.
    ``shard_size``
        Stream each round's cohort through the schedulers in contiguous
        shards of at most this many clients (``0`` = one shard).  This is
        the one cohort memory bound: per-shard plan and payload buffers,
        and the batched scheduler's stacked client state, never exceed
        ``O(shard_size)`` clients.  Sharding never changes results: shards
        are processed in cohort order, so aggregation performs the exact
        same additions.

    The batched scheduler trains any client model it has no stacked
    implementation for (NGCF, LightGCN) on the serial reference path.
    """

    scheduler: str = "serial"
    payload: str = "dense"
    shard_size: int = 0

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_MODES:
            raise ValueError(
                f"scheduler must be one of {SCHEDULER_MODES}, got {self.scheduler!r}"
            )
        if self.payload not in PAYLOAD_FORMATS:
            raise ValueError(
                f"payload must be one of {PAYLOAD_FORMATS}, got {self.payload!r}"
            )
        if self.shard_size < 0:
            raise ValueError(
                f"shard_size must be non-negative, got {self.shard_size}"
            )
