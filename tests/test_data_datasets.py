"""Tests for the dataset container, splitting and synthetic generators."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import dataset_fingerprint
from repro.data import (
    InteractionDataset,
    MINI_SPECS,
    PAPER_SPECS,
    SyntheticSpec,
    debug_dataset,
    generate_dataset,
    gowalla,
    load_movielens_file,
    movielens_100k,
    steam_200k,
)


class TupleDataset:
    """Reference implementation: the tuple/set ``InteractionDataset``.

    Groups pairs one Python tuple at a time into per-user sets.  The
    array-native class must match it exactly: the same pairs in the same
    order, the same per-user items, the same errors, and (for
    :meth:`from_pairs`) the same RNG consumption.
    """

    def __init__(self, num_users, num_items, train_pairs, test_pairs=()):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.train_by_user = self._group_by_user(train_pairs, "train")
        self.test_by_user = self._group_by_user(test_pairs, "test")
        self.train_pairs = self._sorted_pairs(self.train_by_user)
        self.test_pairs = self._sorted_pairs(self.test_by_user)

    def _group_by_user(self, pairs, label) -> Dict[int, np.ndarray]:
        grouped: Dict[int, set] = {}
        for user, item in pairs:
            user = int(user)
            item = int(item)
            if not 0 <= user < self.num_users:
                raise ValueError(f"{label} pair has user {user} outside [0, {self.num_users})")
            if not 0 <= item < self.num_items:
                raise ValueError(f"{label} pair has item {item} outside [0, {self.num_items})")
            grouped.setdefault(user, set()).add(item)
        return {user: np.array(sorted(items), dtype=np.int64) for user, items in grouped.items()}

    @staticmethod
    def _sorted_pairs(by_user) -> np.ndarray:
        return np.asarray(
            sorted((u, i) for u, items in by_user.items() for i in items), dtype=np.int64
        ).reshape(-1, 2)

    @property
    def users(self) -> List[int]:
        return sorted(self.train_by_user)

    def train_items(self, user):
        return self.train_by_user.get(int(user), np.empty(0, dtype=np.int64))

    def test_items(self, user):
        return self.test_by_user.get(int(user), np.empty(0, dtype=np.int64))

    def item_popularity(self) -> np.ndarray:
        counts = np.zeros(self.num_items, dtype=np.int64)
        if self.train_pairs.size:
            np.add.at(counts, self.train_pairs[:, 1], 1)
        return counts

    @staticmethod
    def from_pairs(num_users, num_items, pairs, train_ratio, rng) -> "TupleDataset":
        by_user: Dict[int, List[int]] = {}
        for user, item in pairs:
            by_user.setdefault(int(user), []).append(int(item))
        train_pairs: List[Tuple[int, int]] = []
        test_pairs: List[Tuple[int, int]] = []
        for user, items in by_user.items():
            items = np.array(sorted(set(items)), dtype=np.int64)
            rng.shuffle(items)
            cutoff = max(1, int(round(train_ratio * len(items))))
            cutoff = min(cutoff, len(items))
            train_pairs.extend((user, item) for item in items[:cutoff])
            test_pairs.extend((user, item) for item in items[cutoff:])
        return TupleDataset(num_users, num_items, train_pairs, test_pairs)


def _outcome(build):
    """``build()``'s result, or the message of the ``ValueError`` it raised."""
    try:
        return build()
    except ValueError as error:
        return str(error)


def assert_matches_reference(dataset, reference) -> None:
    if isinstance(reference, str):
        assert dataset == reference
        return
    assert not isinstance(dataset, str), dataset
    for split in ("train_pairs", "test_pairs"):
        got, want = getattr(dataset, split), getattr(reference, split)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for user in range(-2, dataset.num_users + 2):
        for lookup in ("train_items", "test_items"):
            got, want = getattr(dataset, lookup)(user), getattr(reference, lookup)(user)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert dataset.users == reference.users
    popularity = dataset.item_popularity()
    assert popularity.dtype == np.int64
    assert np.array_equal(popularity, reference.item_popularity())


@st.composite
def pair_lists(draw):
    """Dimensions plus train/test pair lists, some pairs out of range."""
    num_users = draw(st.integers(min_value=1, max_value=6))
    num_items = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(
        st.integers(min_value=-1, max_value=num_users),
        st.integers(min_value=-1, max_value=num_items),
    )
    in_range = st.tuples(
        st.integers(min_value=0, max_value=num_users - 1),
        st.integers(min_value=0, max_value=num_items - 1),
    )
    pairs = st.lists(st.one_of(in_range, in_range, in_range, pair), max_size=30)
    return num_users, num_items, draw(pairs), draw(pairs), draw(st.booleans())


def _as_input(pairs, as_array: bool):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs


class TestInteractionDataset:
    def test_basic_construction(self):
        dataset = InteractionDataset(3, 5, [(0, 1), (0, 2), (1, 0)], [(0, 3)], name="toy")
        assert dataset.num_train_interactions == 3
        assert dataset.num_test_interactions == 1
        np.testing.assert_array_equal(dataset.train_items(0), [1, 2])
        np.testing.assert_array_equal(dataset.test_items(0), [3])

    def test_duplicate_pairs_collapse(self):
        dataset = InteractionDataset(2, 4, [(0, 1), (0, 1), (0, 1)])
        assert dataset.num_train_interactions == 1

    def test_out_of_range_user_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, [(5, 1)])

    def test_out_of_range_item_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, [(0, 9)])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(0, 4, [])

    def test_unknown_user_has_empty_items(self):
        dataset = InteractionDataset(3, 5, [(0, 1)])
        assert dataset.train_items(2).size == 0
        assert dataset.test_items(2).size == 0

    def test_train_matrix_matches_pairs(self):
        dataset = InteractionDataset(3, 4, [(0, 1), (2, 3)])
        matrix = dataset.train_matrix()
        assert matrix.shape == (3, 4)
        assert matrix[0, 1] == 1 and matrix[2, 3] == 1
        assert matrix.sum() == 2

    def test_item_popularity(self):
        dataset = InteractionDataset(3, 4, [(0, 1), (1, 1), (2, 0)])
        np.testing.assert_array_equal(dataset.item_popularity(), [1, 2, 0, 0])

    def test_stats(self):
        dataset = InteractionDataset(2, 10, [(0, 1), (0, 2), (1, 3)], [(1, 4)], name="s")
        stats = dataset.stats()
        assert stats.num_interactions == 4
        assert stats.average_profile_length == pytest.approx(2.0)
        assert stats.density == pytest.approx(4 / 20)
        assert stats.as_row()["dataset"] == "s"

    def test_subset_users(self):
        dataset = InteractionDataset(3, 5, [(0, 1), (1, 2), (2, 3)], [(1, 4)])
        subset = dataset.subset_users([1])
        assert subset.users == [1]
        assert subset.num_test_interactions == 1


class TestMatchesTupleReference:
    """The array-native dataset against the tuple/set reference."""

    @settings(max_examples=300, deadline=None)
    @given(pair_lists())
    def test_constructor(self, case):
        num_users, num_items, train, test, as_array = case
        dataset = _outcome(lambda: InteractionDataset(
            num_users, num_items, _as_input(train, as_array), _as_input(test, as_array)))
        reference = _outcome(lambda: TupleDataset(num_users, num_items, train, test))
        assert_matches_reference(dataset, reference)

    @settings(max_examples=300, deadline=None)
    @given(
        pair_lists(),
        st.sampled_from([0.2, 0.5, 0.8, 0.9]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_from_pairs(self, case, train_ratio, seed):
        num_users, num_items, pairs, _, as_array = case
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dataset = _outcome(lambda: InteractionDataset.from_pairs(
            num_users, num_items, _as_input(pairs, as_array), train_ratio, rng))
        reference = _outcome(lambda: TupleDataset.from_pairs(
            num_users, num_items, pairs, train_ratio, reference_rng))
        assert_matches_reference(dataset, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(pair_lists(), st.lists(st.integers(min_value=-1, max_value=7), max_size=6))
    def test_subset_users(self, case, keep):
        num_users, num_items, train, test, _ = case
        train = [(u, i) for u, i in train if 0 <= u < num_users and 0 <= i < num_items]
        test = [(u, i) for u, i in test if 0 <= u < num_users and 0 <= i < num_items]
        subset = InteractionDataset(num_users, num_items, train, test).subset_users(iter(keep))
        reference = TupleDataset(
            num_users, num_items,
            [(u, i) for u, i in train if u in keep], [(u, i) for u, i in test if u in keep])
        assert_matches_reference(subset, reference)

    def test_per_user_items_are_read_only(self):
        dataset = InteractionDataset(2, 4, [(0, 1), (0, 2)], [(1, 3)])
        with pytest.raises(ValueError):
            dataset.train_items(0)[0] = 3
        with pytest.raises(ValueError):
            dataset.train_pairs[0, 1] = 3

    @pytest.mark.parametrize("pairs", [[(0, 1, 2), (1, 2, 3)], [0, 1, 2, 3], [[0, 1], [1]]])
    def test_malformed_pairs_rejected(self, pairs):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, pairs)


class TestSplitting:
    def test_split_ratio_roughly_respected(self, rng):
        pairs = [(u, i) for u in range(20) for i in range(10)]
        dataset = InteractionDataset.from_pairs(20, 10, pairs, train_ratio=0.8, rng=rng)
        total = dataset.num_train_interactions + dataset.num_test_interactions
        assert total == 200
        ratio = dataset.num_train_interactions / total
        assert 0.75 <= ratio <= 0.85

    def test_every_user_keeps_a_training_item(self, rng):
        pairs = [(u, u % 5) for u in range(10)]
        dataset = InteractionDataset.from_pairs(10, 5, pairs, rng=rng)
        for user in range(10):
            assert dataset.train_items(user).size >= 1

    def test_train_and_test_are_disjoint_per_user(self, rng):
        pairs = [(u, i) for u in range(15) for i in range(12)]
        dataset = InteractionDataset.from_pairs(15, 12, pairs, rng=rng)
        for user in dataset.users:
            overlap = set(dataset.train_items(user)) & set(dataset.test_items(user))
            assert not overlap

    def test_invalid_ratio_rejected(self, rng):
        with pytest.raises(ValueError):
            InteractionDataset.from_pairs(2, 2, [(0, 0)], train_ratio=1.5, rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
    def test_split_never_loses_interactions(self, users, items):
        rng = np.random.default_rng(0)
        pairs = [(u, i) for u in range(users) for i in range(items) if (u + i) % 2 == 0]
        dataset = InteractionDataset.from_pairs(users, items, pairs, rng=rng)
        assert dataset.num_train_interactions + dataset.num_test_interactions == len(pairs)


class TestSyntheticGenerators:
    def test_debug_dataset_dimensions(self, rng):
        dataset = debug_dataset(rng, num_users=20, num_items=40, num_interactions=300)
        assert dataset.num_users == 20
        assert dataset.num_items == 40
        total = dataset.num_train_interactions + dataset.num_test_interactions
        assert 0.7 * 300 <= total <= 1.1 * 300

    def test_generator_is_deterministic_per_seed(self):
        first = debug_dataset(np.random.default_rng(5))
        second = debug_dataset(np.random.default_rng(5))
        np.testing.assert_array_equal(first.train_pairs, second.train_pairs)

    def test_paper_specs_match_table2(self):
        ml = PAPER_SPECS["movielens-100k"]
        assert (ml.num_users, ml.num_items, ml.num_interactions) == (943, 1682, 100_000)
        steam = PAPER_SPECS["steam-200k"]
        assert (steam.num_users, steam.num_items) == (3753, 5134)
        gw = PAPER_SPECS["gowalla"]
        assert gw.num_interactions == 391_238

    def test_scaled_spec_preserves_density(self):
        spec = PAPER_SPECS["movielens-100k"]
        scaled = spec.scaled(0.25)
        original_density = spec.num_interactions / (spec.num_users * spec.num_items)
        scaled_density = scaled.num_interactions / (scaled.num_users * scaled.num_items)
        assert scaled_density == pytest.approx(original_density, rel=0.35)

    def test_scaled_spec_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PAPER_SPECS["gowalla"].scaled(0.0)

    def test_mini_specs_preserve_density_ordering(self):
        def density(spec):
            return spec.num_interactions / (spec.num_users * spec.num_items)

        assert density(MINI_SPECS["movielens-mini"]) > density(MINI_SPECS["steam-mini"])
        assert density(MINI_SPECS["steam-mini"]) > density(MINI_SPECS["gowalla-mini"])

    def test_small_scale_presets_have_expected_shapes(self, rng):
        dataset = movielens_100k(rng, scale=0.05)
        assert dataset.num_users == pytest.approx(943 * 0.05, abs=2)
        assert dataset.num_items == pytest.approx(1682 * 0.05, abs=2)

    def test_popularity_is_long_tailed(self, rng):
        dataset = generate_dataset(
            SyntheticSpec("skewed", 60, 120, 1500, popularity_exponent=1.2), rng=rng
        )
        counts = np.sort(dataset.item_popularity())[::-1]
        top_decile = counts[: len(counts) // 10].sum()
        assert top_decile > 0.2 * counts.sum()

    def test_steam_and_gowalla_presets_scale(self, rng):
        steam = steam_200k(rng, scale=0.03)
        gow = gowalla(rng, scale=0.02)
        assert steam.num_users > 0 and gow.num_users > 0
        assert steam.num_items < 5134 and gow.num_items < 10_068


def _loader_round_trip(seed: int, tmp_path) -> InteractionDataset:
    """A generated dataset written as a ``u.data`` file and loaded back.

    Raw ids are 1-based strings, so they remap in string order ("10" sorts
    before "2"), and one zero-rating line must be dropped.
    """
    source = debug_dataset(
        np.random.default_rng(seed), num_users=25, num_items=40, num_interactions=300
    )
    pairs = np.concatenate([source.train_pairs, source.test_pairs])
    lines = [
        f"{u + 1}\t{i + 1}\t{1 + (u * 7 + i) % 5}\t{881250949 + n}"
        for n, (u, i) in enumerate(pairs)
    ]
    lines.insert(3, "3\t999\t0\t1")
    path = tmp_path / "u.data"
    path.write_text("\n".join(lines) + "\n")
    return load_movielens_file(path, rng=np.random.default_rng(seed))


GOLDEN_RECIPES = {
    "debug": lambda seed, tmp: debug_dataset(np.random.default_rng(seed)),
    **{
        name: (lambda seed, tmp, spec=spec: generate_dataset(spec, rng=np.random.default_rng(seed)))
        for name, spec in MINI_SPECS.items()
    },
    "movielens-100k-x0.1": lambda seed, tmp: generate_dataset(
        PAPER_SPECS["movielens-100k"].scaled(0.1), rng=np.random.default_rng(seed)
    ),
    "loader": _loader_round_trip,
}

#: ``dataset_fingerprint`` of every seeded recipe, recorded before the
#: dataset became array-native.  A change here moves every seeded history,
#: metric and sweep-store fingerprint in the repository.
GOLDEN_FINGERPRINTS = {
    ("debug", 2024): "77291af08e174acaa5e616bbf6a6f457295f91c4e48d7e01891dacc86d17197e",
    ("movielens-mini", 2024): "9663da9ead2f8f643ec2e16b1fc2044d7d3f123f8c54e41f1bc1f6813c7ad44f",
    ("steam-mini", 2024): "056029f78ffba1640fa291c507ff9c039544bd317a39b79b285acf6a191ddaef",
    ("gowalla-mini", 2024): "9a7d1902dec6f982b747553be17839b61281d19e7a47cbdb8fac245e5b7e8251",
    ("movielens-100k-x0.1", 2024):
        "cb830367253eb9667cb931c840a0d1930bcfd6ddf01f2c0a7f781aae52c5c50f",
    ("loader", 2024): "b2b245114c71c86189c565ee0b204b9e17dc9d09aab11f2cd844c04713b75020",
    ("debug", 7): "d7f4568280a8e55803b868ce8d2cfe919aff5c4ceac09e21af2d6f967e0a7d71",
    ("movielens-mini", 7): "aa3da40727015b02bbe43b7e07523c4438d1bd8a177e05e425700a26de4ab659",
    ("steam-mini", 7): "dda68d9dfe4c7772b85d8f0771b1c3e2e02207d95ce8854b791712f448589753",
    ("gowalla-mini", 7): "845afe16d7421e9a0e5625bf4500c77406f409610bac3995a89fa40317ff54b3",
    ("movielens-100k-x0.1", 7):
        "10afdb3731547a55abcee22d78d5bceba6a9b7d89e3df36324866dd1390262aa",
    ("loader", 7): "22a451e124cd2ae89dbccce10b587069c7a94ae1ac1e90bea44d6405583aa15b",
}


@pytest.mark.parametrize("recipe, seed", sorted(GOLDEN_FINGERPRINTS))
def test_golden_dataset_fingerprints(recipe, seed, tmp_path):
    dataset = GOLDEN_RECIPES[recipe](seed, tmp_path)
    assert dataset_fingerprint(dataset) == GOLDEN_FINGERPRINTS[(recipe, seed)]
