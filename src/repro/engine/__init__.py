"""Client-simulation execution engine: schedulers for per-round client work.

PTF-FedRec rounds are embarrassingly parallel on the client side — every
selected client trains against its own data with its own derived RNG
stream — yet the reference implementation pays a full Python fit loop per
client.  This package separates *what* a round computes from *how* it is
executed:

* :class:`EngineSpec` — the ``engine={...}`` section of an
  :class:`~repro.experiments.spec.ExperimentSpec`;
* :class:`Scheduler` — the serial reference executor (and base class);
* :class:`BatchedScheduler` — stacks the cohort into ``(clients, ...)``
  arrays so local training runs as vectorized tensor ops
  (:class:`ClientBatch`);
* :func:`create_scheduler` — builds the scheduler a spec names.

All schedulers are **bit-identical** on a fixed seed: randomness is keyed
by ``(seed, component, client, round)``, and the batched path replays the
serial arithmetic exactly (see :mod:`repro.engine.batch`).  Selecting an
execution strategy is therefore a pure performance choice.  Two further
spec knobs bound a round's memory without changing results:
``shard_size`` streams the cohort through contiguous shards, and
``payload="sparse"`` exchanges rows-touched
:class:`~repro.tensor.sparse.SparseDelta` payloads for the FedAvg-style
baselines (see ``docs/scaling.md``).  For example:

>>> from repro.engine import EngineSpec, create_scheduler
>>> create_scheduler(EngineSpec(scheduler="batched")).name
'batched'
>>> create_scheduler().name          # default: the serial reference
'serial'

or, through the experiment API:

>>> import repro
>>> spec = repro.ExperimentSpec(trainer="ptf", engine={"scheduler": "batched"})
>>> spec.engine.shard_size          # default: the whole cohort in one shard
0
"""

from repro.engine.batch import (
    ClientBatch,
    ClientTrainingPlan,
    StackedAdam,
    StackedSGD,
    stack_models,
)
from repro.engine.schedulers import (
    BatchedScheduler,
    Scheduler,
    create_scheduler,
)
from repro.engine.spec import PAYLOAD_FORMATS, SCHEDULER_MODES, EngineSpec

__all__ = [
    "BatchedScheduler",
    "ClientBatch",
    "ClientTrainingPlan",
    "EngineSpec",
    "PAYLOAD_FORMATS",
    "SCHEDULER_MODES",
    "Scheduler",
    "StackedAdam",
    "StackedSGD",
    "create_scheduler",
    "stack_models",
]
