"""Synthetic interaction generators matched to the paper's datasets.

The paper evaluates on MovieLens-100K, Steam-200K and Gowalla (Table II).
Those files cannot be downloaded here, so this module synthesizes datasets
with the same first-order statistics:

* number of users / items / interactions (and therefore density and
  average profile length),
* a long-tailed (Zipf-like) item popularity distribution, which is the
  property that drives the behaviour of negative sampling, the Top Guess
  Attack and the confidence-based dispersal,
* heterogeneous per-user activity (some heavy users, many light users).

Every preset accepts a ``scale`` factor so that the full-size statistical
twins and laptop-sized miniatures come from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class SyntheticSpec:
    """Target statistics for a synthetic dataset.

    ``popularity_exponent`` shapes the item long tail (larger = more skew)
    and ``activity_concentration`` shapes per-user profile lengths (the
    lognormal sigma; larger = heavier-tailed users).
    """

    name: str
    num_users: int
    num_items: int
    num_interactions: int
    popularity_exponent: float = 1.0
    activity_concentration: float = 0.8

    def scaled(self, scale: float) -> "SyntheticSpec":
        """Return a smaller (or larger) version of the spec with the same density.

        Users and items scale linearly with ``scale``; interactions scale
        quadratically so that the density — the statistic the paper links
        to the federated/centralized performance gap — is preserved.  A
        floor of four interactions per user keeps tiny presets trainable.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        num_users = max(8, int(round(self.num_users * scale)))
        num_items = max(16, int(round(self.num_items * scale)))
        num_interactions = max(
            4 * num_users, int(round(self.num_interactions * scale * scale))
        )
        num_interactions = min(num_interactions, num_users * num_items)
        return replace(
            self,
            name=f"{self.name}" if scale == 1.0 else f"{self.name}-x{scale:g}",
            num_users=num_users,
            num_items=num_items,
            num_interactions=num_interactions,
        )


#: Specifications matching Table II of the paper.
PAPER_SPECS: Dict[str, SyntheticSpec] = {
    "movielens-100k": SyntheticSpec(
        name="movielens-100k",
        num_users=943,
        num_items=1682,
        num_interactions=100_000,
        popularity_exponent=1.05,
        activity_concentration=0.9,
    ),
    "steam-200k": SyntheticSpec(
        name="steam-200k",
        num_users=3753,
        num_items=5134,
        num_interactions=114_713,
        popularity_exponent=1.15,
        activity_concentration=1.0,
    ),
    "gowalla": SyntheticSpec(
        name="gowalla",
        num_users=8392,
        num_items=10_068,
        num_interactions=391_238,
        popularity_exponent=1.1,
        activity_concentration=0.9,
    ),
}


#: Miniature presets used by the benchmark harness.  Full statistical twins
#: are too slow for a single-core benchmark run, so these keep the *ordering*
#: of the paper's datasets (MovieLens densest and smallest, Gowalla sparsest
#: and largest) at a size where every table/figure regenerates in minutes.
MINI_SPECS: Dict[str, SyntheticSpec] = {
    "movielens-mini": SyntheticSpec(
        name="movielens-mini",
        num_users=100,
        num_items=150,
        num_interactions=2000,
        popularity_exponent=1.05,
        activity_concentration=0.9,
    ),
    "steam-mini": SyntheticSpec(
        name="steam-mini",
        num_users=150,
        num_items=400,
        num_interactions=1800,
        popularity_exponent=1.15,
        activity_concentration=1.0,
    ),
    "gowalla-mini": SyntheticSpec(
        name="gowalla-mini",
        num_users=200,
        num_items=600,
        num_interactions=2000,
        popularity_exponent=1.1,
        activity_concentration=0.9,
    ),
}


def generate_dataset(
    spec: SyntheticSpec,
    rng: Optional[np.random.Generator] = None,
    train_ratio: float = 0.8,
) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` matching ``spec``.

    The generator draws per-user profile sizes from a lognormal
    distribution rescaled to hit the target interaction count, then fills
    each profile by sampling items without replacement from a Zipf
    popularity distribution.  The result is split 8:2 per user, matching
    the paper's protocol.
    """
    rng = rng if rng is not None else seeded_rng()

    sizes = np.clip(_draw_profile_sizes(spec, rng), 0, spec.num_items)
    popularity = _item_popularity_weights(spec)

    # One draw per user, in user order (the RNG stream every seeded dataset
    # was generated with); the pair array is assembled once afterwards.
    draws = [
        rng.choice(spec.num_items, size=size, replace=False, p=popularity)
        for size in sizes.tolist()
        if size > 0
    ]
    users = np.repeat(np.arange(spec.num_users), sizes)
    pairs = np.column_stack((users, np.concatenate([np.empty(0, dtype=np.int64), *draws])))

    return InteractionDataset.from_pairs(
        num_users=spec.num_users,
        num_items=spec.num_items,
        pairs=pairs,
        train_ratio=train_ratio,
        rng=rng,
        name=spec.name,
    )


def movielens_100k(
    rng: Optional[np.random.Generator] = None, scale: float = 1.0
) -> InteractionDataset:
    """MovieLens-100K statistical twin (943 users, 1682 items, 100k ratings)."""
    return generate_dataset(PAPER_SPECS["movielens-100k"].scaled(scale), rng=rng)


def steam_200k(
    rng: Optional[np.random.Generator] = None, scale: float = 1.0
) -> InteractionDataset:
    """Steam-200K statistical twin (3753 users, 5134 games, 114k interactions)."""
    return generate_dataset(PAPER_SPECS["steam-200k"].scaled(scale), rng=rng)


def gowalla(
    rng: Optional[np.random.Generator] = None, scale: float = 1.0
) -> InteractionDataset:
    """Gowalla (20-core) statistical twin (8392 users, 10k locations, 391k check-ins)."""
    return generate_dataset(PAPER_SPECS["gowalla"].scaled(scale), rng=rng)


def debug_dataset(
    rng: Optional[np.random.Generator] = None,
    num_users: int = 30,
    num_items: int = 60,
    num_interactions: int = 600,
) -> InteractionDataset:
    """A tiny dataset for unit tests and smoke benches."""
    spec = SyntheticSpec(
        name="debug",
        num_users=num_users,
        num_items=num_items,
        num_interactions=num_interactions,
        popularity_exponent=1.0,
        activity_concentration=0.6,
    )
    return generate_dataset(spec, rng=rng)


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _draw_profile_sizes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-user interaction counts that sum (approximately) to the target."""
    raw = rng.lognormal(mean=0.0, sigma=spec.activity_concentration, size=spec.num_users)
    raw = raw / raw.sum() * spec.num_interactions
    sizes = np.maximum(2, np.round(raw)).astype(np.int64)
    sizes = np.minimum(sizes, spec.num_items)
    # Adjust the largest users so the total lands close to the target
    # without exceeding the per-user item limit.
    deficit = spec.num_interactions - int(sizes.sum())
    if deficit > 0:
        order = np.argsort(-sizes)
        for user in order:
            if deficit <= 0:
                break
            headroom = spec.num_items - sizes[user]
            add = min(headroom, deficit)
            sizes[user] += add
            deficit -= add
    return sizes


def _item_popularity_weights(spec: SyntheticSpec) -> np.ndarray:
    """Zipf-like item sampling weights, normalized to a distribution."""
    ranks = np.arange(1, spec.num_items + 1, dtype=np.float64)
    weights = ranks ** (-spec.popularity_exponent)
    return weights / weights.sum()
