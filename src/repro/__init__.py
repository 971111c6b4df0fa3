"""PTF-FedRec: parameter transmission-free federated recommendation.

Reproduction of "Hide Your Model: A Parameter Transmission-free Federated
Recommender System" (ICDE 2024).  The package is organised bottom-up:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.optim` — a NumPy
  autograd / neural-network substrate (stand-in for PyTorch),
* :mod:`repro.data` — interaction datasets and synthetic workload
  generators matched to the paper's dataset statistics,
* :mod:`repro.models` — NeuMF, NGCF, LightGCN and matrix factorization,
* :mod:`repro.eval` — Recall@K / NDCG@K ranking evaluation,
* :mod:`repro.centralized` — centralized training baselines,
* :mod:`repro.federated` — parameter transmission-based FedRec baselines
  (FCF, FedMF, MetaMF) with byte-level communication accounting,
* :mod:`repro.core` — PTF-FedRec itself: clients, server, the
  prediction-exchange protocol, privacy defenses and the Top Guess Attack,
* :mod:`repro.engine` — the client-simulation execution engine: serial
  and batched (vectorized) schedulers for the per-round client work,
  bit-identical on a fixed seed,
* :mod:`repro.experiments` — the unified experiment API: a sectioned
  :class:`ExperimentSpec`, a trainer registry covering every paradigm
  (``"ptf"``, ``"fcf"``, ``"fedmf"``, ``"metamf"``, ``"centralized"``),
  training callbacks, and :func:`run`, which returns a uniform
  :class:`~repro.experiments.RunResult` for any of them,
* :mod:`repro.artifacts` — durable, schema-versioned checkpoints (JSON
  manifest + npz payload) for every trainer; ``run(spec,
  resume_from=path)`` continues a checkpointed run bit-identically,
* :mod:`repro.serve` — the query-time :class:`~repro.serve.Recommender`
  service: batched top-k recommendations from a saved artifact, with an
  LRU score cache and a popularity cold-start fallback,
* :mod:`repro.sweep` — declarative, parallel, fingerprint-cached sweeps:
  a :class:`~repro.sweep.SweepSpec` of experiment grids, executed by
  :class:`~repro.sweep.Sweep` with crash-resume for free
  (``python -m repro.sweep sweep.json``).

Quickstart::

    import repro
    from repro.data import movielens_100k
    from repro.utils import RngFactory

    dataset = movielens_100k(RngFactory(0).spawn("data"), scale=0.2)
    spec = repro.ExperimentSpec(
        trainer="ptf",
        model={"server_model": "ngcf", "embedding_dim": 16},
        protocol={"rounds": 10},
    )
    result = repro.run(spec, dataset)
    print(result.final.as_dict())
    print(result.communication.average_client_round_kilobytes, "KB/client/round")
"""

from repro import (
    artifacts,
    core,
    data,
    engine,
    eval,
    experiments,
    federated,
    models,
    nn,
    optim,
    serve,
    sweep,
    tensor,
    utils,
)
from repro.artifacts import load_checkpoint, save_checkpoint
from repro.core import PTFFedRec
from repro.engine import EngineSpec
from repro.experiments import ExperimentSpec, RunResult, register_trainer, run

__version__ = "1.2.0"

__all__ = [
    "artifacts",
    "core",
    "data",
    "engine",
    "eval",
    "experiments",
    "federated",
    "models",
    "nn",
    "optim",
    "serve",
    "sweep",
    "tensor",
    "utils",
    "PTFFedRec",
    "EngineSpec",
    "ExperimentSpec",
    "RunResult",
    "load_checkpoint",
    "save_checkpoint",
    "register_trainer",
    "run",
    "__version__",
]
