"""Golden fingerprints of scenario-off training runs.

Each case trains a small seeded run and hashes three things: the logs every
round hands to the callbacks, every communication-ledger record, and the
bytes of the serving parameters.  The values were recorded while each
driver still kept a separate scenario-off round body; both drivers now send
every round through ``ScenarioEngine.plan_round``, and these hashes pin that
a disabled scenario still changes nothing.  The centralized case was
recorded while centralized training still read its own config dataclass,
so it pins that reading the spec changes nothing either.

The specs pin ``backend="numpy"`` so the float32 CI legs
(``REPRO_BACKEND=numpy32``) check the same values.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.data import debug_dataset
from repro.experiments import Callback, ExperimentSpec
from repro.experiments.registry import get_trainer
from repro.utils import RngFactory


class _RecordLogs(Callback):
    def __init__(self):
        self.logs = []

    def on_round_end(self, trainer, round_index, logs):
        self.logs.append((round_index, dict(logs)))


def _run_digest(trainer: str, scheduler: str, client_fraction: float,
                payload: str = "dense", shard_size: int = 0, scenario=None) -> str:
    dataset = debug_dataset(
        RngFactory(2024).spawn("golden-runs"),
        num_users=20, num_items=40, num_interactions=300,
    )
    spec = ExperimentSpec.from_flat(
        trainer=trainer, seed=11, backend="numpy",
        rounds=3, client_local_epochs=1, server_epochs=1,
        client_fraction=client_fraction,
        embedding_dim=8, client_mlp_layers=(16, 8), server_num_layers=2, alpha=8,
        scheduler=scheduler, payload=payload, shard_size=shard_size,
        **(scenario or {}),
    )
    adapter = get_trainer(trainer)(spec, dataset)
    recorder = _RecordLogs()
    adapter.fit(callbacks=[recorder])

    digest = hashlib.sha256()
    digest.update(json.dumps(recorder.logs, sort_keys=True).encode())
    # Centralized training keeps no ledger: its logs carry the loss history.
    records = [
        (r.round_index, r.client_id, r.direction, r.num_bytes, r.description)
        for r in (adapter.ledger.records if adapter.ledger is not None else [])
    ]
    digest.update(json.dumps(records).encode())
    for name, parameter in adapter.serving_model().named_parameters():
        data = np.ascontiguousarray(parameter.data)
        digest.update(f"{name}|{data.dtype.str}|{data.shape}".encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


#: ``(trainer, scheduler, client_fraction, payload, shard_size)`` -> digest.
#: Centralized training ignores the engine and cohort settings; its one
#: case pins three epochs of the NGCF server model.
GOLDEN_RUN_DIGESTS = {
    ("centralized", "serial", 1.0, "dense", 0):
        "e80afe8a2ff0c12b535567c701e6db1f702918c0f48a9e0596a970df2cdab5ca",
    ("ptf", "serial", 1.0, "dense", 0):
        "591b3a59ae9ee1e0085d204ffa32ef7e4cfe3588286ad6ac6349bc17c0b0207c",
    ("ptf", "serial", 0.5, "dense", 0):
        "8a81b1e618f695fbdf5972a22c438aaf3891b9e21259d201af3b31c9b9185753",
    ("ptf", "batched", 1.0, "dense", 0):
        "591b3a59ae9ee1e0085d204ffa32ef7e4cfe3588286ad6ac6349bc17c0b0207c",
    ("ptf", "batched", 0.5, "dense", 0):
        "8a81b1e618f695fbdf5972a22c438aaf3891b9e21259d201af3b31c9b9185753",
    ("ptf", "batched", 1.0, "dense", 8):
        "591b3a59ae9ee1e0085d204ffa32ef7e4cfe3588286ad6ac6349bc17c0b0207c",
    ("fcf", "serial", 1.0, "dense", 0):
        "47885452e9ed1d609c047aa18890f3d842c42bec92b1be74bd6219286af59593",
    ("fcf", "serial", 0.5, "dense", 0):
        "31292efa2a013f5ae3cc0264e33016e0b3f7d0a5fed45ea72714d05c7aa35597",
    ("fcf", "batched", 1.0, "dense", 0):
        "47885452e9ed1d609c047aa18890f3d842c42bec92b1be74bd6219286af59593",
    ("fcf", "batched", 0.5, "dense", 0):
        "31292efa2a013f5ae3cc0264e33016e0b3f7d0a5fed45ea72714d05c7aa35597",
    ("fcf", "batched", 1.0, "sparse", 8):
        "1d6ea327394b2f75f199713fd1fa5726b462a77c2e3cb1483e184aa94e9a1787",
    ("fedmf", "serial", 1.0, "dense", 0):
        "522acfa2ce9b1a8abea9d945bc64a50d8d659b84d236a83e59569ef00c4716a2",
    ("fedmf", "serial", 0.5, "dense", 0):
        "69d7bf13b7f4a61127c3a1ed2c902d5384bfdc793de6f2ef77c612a2969c3f0c",
    ("fedmf", "batched", 1.0, "dense", 0):
        "522acfa2ce9b1a8abea9d945bc64a50d8d659b84d236a83e59569ef00c4716a2",
    ("fedmf", "batched", 0.5, "dense", 0):
        "69d7bf13b7f4a61127c3a1ed2c902d5384bfdc793de6f2ef77c612a2969c3f0c",
    ("fedmf", "batched", 1.0, "sparse", 8):
        "2e00cd8a8e54388fe2718aa4ac23e448c05d6d797bd489cce6d3ef55411ae595",
    ("metamf", "serial", 1.0, "dense", 0):
        "4b60184c5505ed1465a115333c1831a7e4d99d81affcdfbd7878f96b2223b033",
    ("metamf", "serial", 0.5, "dense", 0):
        "432cdfe2f0f6f13ed05e37f6ea6dae85cfa450ceadace91d1be91ebaadd5f249",
    ("metamf", "batched", 1.0, "dense", 0):
        "4b60184c5505ed1465a115333c1831a7e4d99d81affcdfbd7878f96b2223b033",
    ("metamf", "batched", 0.5, "dense", 0):
        "432cdfe2f0f6f13ed05e37f6ea6dae85cfa450ceadace91d1be91ebaadd5f249",
    ("metamf", "batched", 1.0, "sparse", 8):
        "5615e957dee5c610be1b9ed72e0e63b895c3bdf97607ed13aa39bc30a1607345",
}


#: Churn, async stragglers and streaming arrivals at once, so the refactor
#: is pinned on the fault path too (the on-time/stale/lost split, the
#: stale-buffer fold and the item-arrival mask all carry weight).
FAULTS = {
    "dropout": 0.2,
    "deadline": 1.0,
    "latency_range": (0.5, 2.5),
    "aggregation": "async",
    "max_staleness": 2,
    "user_arrival_fraction": 0.3,
    "user_arrival_rounds": 2,
    "item_arrival_fraction": 0.2,
    "item_arrival_rounds": 2,
}

#: ``(trainer, payload)`` -> digest of a ``client_fraction=0.5`` run under
#: :data:`FAULTS` (sparse runs use ``shard_size=8``).
GOLDEN_FAULT_DIGESTS = {
    ("ptf", "dense"): "44350409817b88e683f1fc3dae3f17ca1d2383f9f117e941cbc21a0fc98b91cc",
    ("fcf", "dense"): "390bf5f16817e0c62828279ad27a0e3a3e2feb18909c12f181bccf202213392d",
    ("fcf", "sparse"): "951d55206a2eb9f11efc75765f4873cc2a605cbdfadcc7d5d2d9348eb92feaf4",
    ("fedmf", "dense"): "1962a3d86c22750e18fa009385382d5703ebc828eac87944aef6042b36981853",
    ("fedmf", "sparse"): "13d27122ca2eae4411c80c352d4864ae9ec2b2aade990718cab90f6d5102d4ae",
    ("metamf", "dense"): "a583b5168cc858586cf42e55a37bf5f8c96b2fad23dfe73f4f81e77b8abeba95",
    ("metamf", "sparse"): "cd043f641757ddeaf49461d9d0e8b0c9390576feba0003ccd011b41daa4cd715",
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN_RUN_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_golden_run_digests(case):
    assert _run_digest(*case) == GOLDEN_RUN_DIGESTS[case]


@pytest.mark.parametrize("scheduler", ["serial", "batched"])
@pytest.mark.parametrize("case", sorted(GOLDEN_FAULT_DIGESTS), ids="-".join)
def test_golden_fault_digests(case, scheduler):
    trainer, payload = case
    shard_size = 8 if payload == "sparse" else 0
    digest = _run_digest(trainer, scheduler, 0.5, payload, shard_size, FAULTS)
    assert digest == GOLDEN_FAULT_DIGESTS[case]
