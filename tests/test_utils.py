"""Tests for RNG management, logging and timing utilities."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import RngFactory, Timer, get_logger, seeded_rng


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(7).spawn("component")
        b = RngFactory(7).spawn("component")
        np.testing.assert_array_equal(a.random(5), b.random(5))

    def test_different_names_give_different_streams(self):
        factory = RngFactory(7)
        a = factory.spawn("alpha").random(5)
        b = factory.spawn("beta").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_give_different_streams(self):
        a = RngFactory(1).spawn("x").random(5)
        b = RngFactory(2).spawn("x").random(5)
        assert not np.allclose(a, b)

    def test_indexed_spawning_is_deterministic(self):
        a = RngFactory(3).spawn_indexed("client", 42).random(3)
        b = RngFactory(3).spawn_indexed("client", 42).random(3)
        np.testing.assert_array_equal(a, b)

    def test_indexed_spawning_varies_with_index(self):
        factory = RngFactory(3)
        a = factory.spawn_indexed("client", 1).random(3)
        b = factory.spawn_indexed("client", 2).random(3)
        assert not np.allclose(a, b)

    def test_adding_components_does_not_perturb_existing_streams(self):
        # The stream for one name must not depend on whether other names
        # were spawned before it.
        lone = RngFactory(11).spawn("target").random(4)
        factory = RngFactory(11)
        factory.spawn("other-a")
        factory.spawn("other-b")
        np.testing.assert_array_equal(factory.spawn("target").random(4), lone)

    def test_seeded_rng_reproducible(self):
        np.testing.assert_array_equal(seeded_rng(5).random(3), seeded_rng(5).random(3))


SEEDS = (0, 7, 2024, 123456789012)
NAMES = ("scenario-dropout", "scenario-latency", "local-sampling")
#: Keys on both sides of 2**32 (one vs two uint32 entropy words), up to
#: the widest signed key; 4295 * 1_000_003 is the first wide scenario key.
KEYS = (0, 1, 99, 2**32 - 1, 2**32, 2**32 + 1, 4295 * 1_000_003 + 3,
        2**40 + 3, 2**63 - 1)

#: Each draw must equal the same call on a fresh ``spawn_indexed`` stream.
DRAWS = {
    "random": lambda rng: rng.random(),
    "uniform": lambda rng: rng.uniform(0, 1.5),
    "permutation": lambda rng: rng.permutation(17).tolist(),
    "integers": lambda rng: rng.integers(0, 400, 9).tolist(),
}


class TestVectorisedKeyedStreams:
    """The cohort seeding kernel against live NumPy ``SeedSequence``/``PCG64``.

    NEP 19 keeps NumPy's seeding stable; if a release ever changes it,
    these tests fail rather than letting streams move silently.
    """

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_indexed_equals_spawn_indexed(self, seed, name):
        factory = RngFactory(seed)
        expected = [factory.spawn_indexed(name, key).random() for key in KEYS]
        assert factory.random_indexed(name, list(KEYS)).tolist() == expected

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iter_indexed_first_draw_equals_spawn_indexed(self, seed, draw):
        factory = RngFactory(seed)
        generators = factory.iter_indexed("local-sampling", KEYS)
        for key, generator in zip(KEYS, generators, strict=True):
            expected = DRAWS[draw](factory.spawn_indexed("local-sampling", key))
            assert DRAWS[draw](generator) == expected

    def test_iter_indexed_resets_between_keys(self):
        # integers() leaves half of a 64-bit output buffered; the next key
        # must still start from its own fresh stream.
        factory = RngFactory(2024)
        for key, generator in zip(KEYS, factory.iter_indexed("x", KEYS), strict=True):
            reference = factory.spawn_indexed("x", key)
            for draw in ("random", "integers", "uniform", "permutation", "integers"):
                assert DRAWS[draw](generator) == DRAWS[draw](reference)

    def test_numpy_integer_keys(self):
        factory = RngFactory(7)
        keys = np.array(KEYS, dtype=np.uint64)
        expected = [factory.spawn_indexed("k", key).random() for key in KEYS]
        assert factory.random_indexed("k", keys).tolist() == expected
        assert factory.random_indexed("k", keys.astype(np.int64)).tolist() == expected

    def test_empty_keys(self):
        factory = RngFactory(2024)
        draws = factory.random_indexed("scenario-dropout", [])
        assert draws.shape == (0,) and draws.dtype == np.float64
        assert list(factory.iter_indexed("local-sampling", np.empty(0, dtype=np.int64))) == []

    def test_negative_key_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            RngFactory(0).spawn_indexed("x", -1)
        with pytest.raises(ValueError):
            RngFactory(0).random_indexed("x", [3, -1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**96),
        name=st.text(max_size=16),
        keys=st.lists(
            st.one_of(st.integers(0, 2**32 + 16), st.integers(0, 2**63 - 1)),
            max_size=12,
        ),
    )
    def test_matches_numpy_for_any_seed_name_and_keys(self, seed, name, keys):
        factory = RngFactory(seed)
        expected = [factory.spawn_indexed(name, key).random() for key in keys]
        assert factory.random_indexed(name, keys).tolist() == expected
        firsts = [rng.integers(0, 2**62) for rng in factory.iter_indexed(name, keys)]
        assert firsts == [factory.spawn_indexed(name, key).integers(0, 2**62) for key in keys]


class TestLoggingAndTimer:
    def test_get_logger_is_singleton_per_name(self):
        assert get_logger("repro-test") is get_logger("repro-test")

    def test_get_logger_has_single_handler(self):
        logger = get_logger("repro-test-handlers")
        get_logger("repro-test-handlers")
        assert len(logger.handlers) == 1

    def test_logger_level(self):
        logger = get_logger("repro-test-level", level=logging.WARNING)
        assert logger.level == logging.WARNING

    def test_timer_measures_elapsed_time(self):
        with Timer() as timer:
            total = sum(range(10000))
        assert total > 0
        assert timer.elapsed >= 0.0
