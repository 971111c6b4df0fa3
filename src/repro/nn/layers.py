"""Standard layers used by the recommendation models."""

from __future__ import annotations

from typing import Optional

# repro: disable=backend-purity -- init draws and dropout masks are ndarray plumbing; layer math runs on Tensor
import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn import init
from repro.tensor import Tensor
from repro.utils.rng import seeded_rng


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else seeded_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng),
                                name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs.matmul(self.weight.T)
        if self.bias is not None:
            output = output + self.bias
        return output

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Tracks how many times each row has been part of a gradient update via
    :attr:`update_counts`; PTF-FedRec's confidence-based dispersal
    (Section III-B3 of the paper) uses this counter to decide which item
    predictions are reliable enough to share with clients.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.01,
    ):
        super().__init__()
        rng = rng if rng is not None else seeded_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=std),
                                name="weight")
        self.register_buffer("update_counts", np.zeros(num_embeddings, dtype=np.int64))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if self.training:
            np.add.at(self.update_counts, indices, 1)
        return self.weight.index_rows(indices)

    def all_rows(self) -> Tensor:
        """Return the full table as a tensor (used by graph propagation)."""
        return self.weight

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, rate: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else seeded_rng()

    def forward(self, inputs: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return inputs
        keep = 1.0 - self.rate
        mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * Tensor(mask)


class ReLU(Module):
    """Elementwise ReLU activation module."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sigmoid(Module):
    """Elementwise sigmoid activation module."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Tanh(Module):
    """Elementwise tanh activation module."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class LeakyReLU(Module):
    """Elementwise LeakyReLU activation module."""

    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.leaky_relu(self.negative_slope)


class Identity(Module):
    """Pass-through module (useful as a default component)."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._ordered.append(module)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self._ordered:
            output = module(output)
        return output

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self):
        return iter(self._ordered)
