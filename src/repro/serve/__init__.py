"""Query-time serving: batched top-k recommendations from artifacts.

The deployment half of the lifecycle: :mod:`repro.artifacts` makes a
trained run durable, and this package answers recommendation queries from
it.

* :class:`Recommender` — a service facade over any trained
  :class:`repro.models.base.Recommender`: ``recommend(users, k,
  exclude_seen=True)`` ranks whole user cohorts through the batched
  scoring paths of :mod:`repro.eval.scoring` (one matmul per cohort for
  the embedding dot-product architectures, chunked flattened tensor
  passes otherwise — the very same cohort scorer the training-time
  evaluator uses), with an LRU score cache for hot users and a popularity
  fallback for cold-start users;
* ``Recommender.from_checkpoint(path)`` — stand up the service straight
  from a saved artifact (PTF-FedRec artifacts serve the provider's hidden
  server model, exactly what the paper's deployment story implies);
* :class:`ServingGateway` — the traffic-facing layer over the facade:
  concurrent single-user ``recommend``/``scores`` requests are coalesced
  into one cohort score pass per tick (micro-batching, knobs ``max_batch``
  / ``max_wait_ms``), models hot-swap from checkpoints with zero downtime
  (:meth:`ServingGateway.swap`), latency SLOs shed deterministically under
  overload (:class:`Rejected`), and :class:`GatewayStats` snapshots
  p50/p99/QPS/batch-histogram telemetry for the benchmark JSON artifacts.

Quickstart::

    import repro
    from repro.serve import Recommender

    spec = repro.ExperimentSpec(trainer="ptf", protocol={"rounds": 5})
    result = repro.run(spec, callbacks=[
        repro.artifacts.CheckpointEveryK("ckpts", every=5)
    ])

    service = Recommender.from_checkpoint("ckpts/latest")
    top10 = service.recommend([0, 1, 2], k=10)   # (3, 10) ranked item ids
"""

from repro.eval.scoring import batch_scores
from repro.serve.gateway import GatewayStats, GatewayTicket, Rejected, ServingGateway
from repro.serve.recommender import Recommender

__all__ = [
    "Recommender",
    "batch_scores",
    "ServingGateway",
    "GatewayTicket",
    "GatewayStats",
    "Rejected",
]
