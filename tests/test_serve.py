"""Tests for repro.serve: batched scoring parity, caching, cold start.

The facade's contract: ``recommend`` over a cohort answers exactly what
the per-user serial path would answer (same scores, same masking, same
grading by the ranking evaluator), just computed as one batched pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts import CheckpointEveryK
from repro.eval.ranking import RankingEvaluator
from repro.experiments import ExperimentSpec, create_trainer
from repro.models.mf import MatrixFactorization
from repro.models.popularity import PopularityRecommender
from repro.serve import Recommender, batch_scores


def served_spec(trainer: str = "ptf", **overrides) -> ExperimentSpec:
    base = dict(
        trainer=trainer,
        seed=29,
        embedding_dim=8,
        rounds=2,
        client_local_epochs=1,
        server_epochs=1,
        alpha=10,
    )
    base.update(overrides)
    trainer = base.pop("trainer")
    seed = base.pop("seed")
    return ExperimentSpec.from_flat(trainer=trainer, seed=seed, **base)


@pytest.fixture
def trained(tiny_dataset):
    """A trained PTF adapter + its serving facade."""
    adapter = create_trainer(served_spec(), tiny_dataset).fit()
    return adapter, Recommender.from_trainer(adapter, tiny_dataset)


# ----------------------------------------------------------------------
# Batched scoring parity with the serial per-user path
# ----------------------------------------------------------------------
class TestBatchScores:
    # Covers every closed form (mf via fcf, metamf, graph via ptf/ngcf)
    # plus the flat all-pairs fallback (neumf via centralized).
    @pytest.mark.parametrize("trainer,overrides", [
        ("ptf", {"server_model": "ngcf"}),
        ("ptf", {"server_model": "lightgcn"}),
        ("fcf", {}),
        ("metamf", {}),
        ("centralized", {"server_model": "neumf"}),
        ("centralized", {"server_model": "mf"}),
    ])
    def test_matches_score_all_items(self, trainer, overrides, tiny_dataset):
        adapter = create_trainer(served_spec(trainer, **overrides), tiny_dataset).fit()
        model = adapter.serving_model()
        users = np.asarray(tiny_dataset.users[:8], dtype=np.int64)
        matrix = batch_scores(model, users)
        assert matrix.shape == (users.size, model.num_items)
        # The closed forms run the same arithmetic as the per-user tensor
        # pass under float64; under float32 the BLAS cohort matmul may
        # accumulate in a different order, so compare at dtype precision.
        dtype = next(iter(model.parameters())).dtype
        tolerance = (
            dict(rtol=1e-10, atol=1e-12) if dtype == np.float64
            else dict(rtol=1e-4, atol=1e-6)
        )
        for row, user in zip(matrix, users):
            np.testing.assert_allclose(
                row, model.score_all_items(int(user)), **tolerance
            )

    def test_out_of_range_user_raises(self, trained):
        adapter, _ = trained
        with pytest.raises(IndexError):
            batch_scores(adapter.serving_model(), np.array([10_000]))

    def test_empty_cohort(self, trained):
        adapter, _ = trained
        matrix = batch_scores(adapter.serving_model(), np.array([], dtype=np.int64))
        assert matrix.shape == (0, adapter.serving_model().num_items)


# ----------------------------------------------------------------------
# The service facade
# ----------------------------------------------------------------------
class TestRecommender:
    def test_recommend_shapes(self, trained):
        _, service = trained
        batch = service.recommend([0, 1, 2], k=5)
        assert batch.shape == (3, 5)
        single = service.recommend(0, k=5)
        assert single.shape == (5,)
        np.testing.assert_array_equal(single, batch[0])

    def test_recommend_excludes_seen(self, trained, tiny_dataset):
        _, service = trained
        users = tiny_dataset.users[:10]
        ranked = service.recommend(users, k=10)
        for row, user in zip(ranked, users):
            assert not set(row.tolist()) & set(tiny_dataset.train_items(user).tolist())

    def test_recommend_can_include_seen(self, trained):
        _, service = trained
        ranked = service.recommend([0], k=service.num_items, exclude_seen=False)
        assert sorted(ranked[0].tolist()) == list(range(service.num_items))

    def test_matches_serial_model_recommend(self, trained, tiny_dataset):
        """Cohort answers == the per-user serial baseline's answers."""
        adapter, service = trained
        model = adapter.serving_model()
        users = tiny_dataset.users[:10]
        batched = service.recommend(users, k=10)
        for row, user in zip(batched, users):
            serial = model.recommend(
                user, k=10, exclude_items=tiny_dataset.train_items(user)
            )
            np.testing.assert_array_equal(row, serial)

    def test_served_topk_grades_like_the_evaluator(self, trained, tiny_dataset):
        """Grading served lists with result_for_recommendations reproduces
        the training-time evaluation exactly."""
        adapter, service = trained
        evaluator = RankingEvaluator(tiny_dataset, k=10)
        users = tiny_dataset.users
        served = {user: service.recommend(user, k=10) for user in users}
        graded = evaluator.evaluate_recommendation_lists(served)
        reference = evaluator.evaluate(adapter.serving_model(), users=users)
        assert graded == reference


class TestColdStart:
    def test_unknown_user_gets_popularity(self, trained, tiny_dataset):
        _, service = trained
        cold_user = 10_000
        ranked = service.recommend(cold_user, k=5)
        reference = PopularityRecommender(1, tiny_dataset.num_items)
        reference.fit(tiny_dataset.item_popularity())
        np.testing.assert_array_equal(ranked, reference.recommend(0, k=5))

    def test_user_without_interactions_is_cold(self, trained, tiny_dataset):
        """An in-range user absent from seen_items is cold, not personalized."""
        adapter, _ = trained
        missing = tiny_dataset.users[0]
        seen = {user: tiny_dataset.train_items(user)
                for user in tiny_dataset.users if user != missing}
        service = Recommender(
            adapter.serving_model(), seen_items=seen,
            popularity=tiny_dataset.item_popularity(),
        )
        reference = PopularityRecommender(1, tiny_dataset.num_items)
        reference.fit(tiny_dataset.item_popularity())
        np.testing.assert_array_equal(
            service.scores(missing)[0], reference.score_all_items(0)
        )
        # ...while a user that *is* in seen_items gets model scores.
        warm = tiny_dataset.users[1]
        np.testing.assert_allclose(
            service.scores(warm)[0],
            adapter.serving_model().score_all_items(warm),
            rtol=1e-10, atol=1e-12,
        )

    def test_unknown_user_without_fallback_raises(self, trained):
        adapter, _ = trained
        bare = Recommender(adapter.serving_model())
        with pytest.raises(IndexError, match="unknown"):
            bare.scores(10_000)


class TestColdStats:
    def test_cold_lookups_do_not_count_as_cache_misses(self, trained):
        """Cold rows are never cacheable, so cold traffic must not skew
        the LRU hit-rate statistics (regression: ``_cache_get`` used to be
        consulted before ``_is_cold``)."""
        _, service = trained
        cold_user = 10_000
        service.scores([cold_user])
        service.scores([cold_user])
        assert service.cold_hits == 2
        assert (service.cache_hits, service.cache_misses) == (0, 0)

    def test_mixed_cohort_splits_the_counters(self, trained):
        _, service = trained
        service.scores([0, 10_000, 1])
        assert service.cold_hits == 1
        assert (service.cache_hits, service.cache_misses) == (0, 2)
        service.scores([0, 10_000])
        assert service.cold_hits == 2
        assert (service.cache_hits, service.cache_misses) == (1, 2)


class TestScoreCache:
    def test_repeat_queries_hit_the_cache(self, trained):
        _, service = trained
        first = service.scores([0, 1])
        assert (service.cache_hits, service.cache_misses) == (0, 2)
        second = service.scores([0, 1])
        assert service.cache_hits == 2
        np.testing.assert_array_equal(first, second)

    def test_lru_evicts_oldest(self, trained, tiny_dataset):
        adapter, _ = trained
        service = Recommender.from_trainer(adapter, tiny_dataset, cache_size=2)
        service.scores([0]); service.scores([1]); service.scores([2])
        service.scores([0])  # 0 was evicted by 2 -> a miss again
        assert service.cache_hits == 0
        assert service.cache_misses == 4

    def test_duplicate_users_in_one_query(self, trained):
        _, service = trained
        rows = service.scores([3, 3, 3])
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[0], rows[2])
        assert service.cache_misses == 1

    def test_clear_cache(self, trained):
        _, service = trained
        service.scores([0])
        service.clear_cache()
        service.scores([0])
        assert service.cache_misses == 2


class TestReload:
    """reload() invalidates exactly what changed — the model-swap path."""

    def test_model_swap_drops_cache_and_keeps_counters(self, trained, tiny_dataset):
        adapter, service = trained
        service.scores([0, 1])
        assert service.cache_misses == 2
        retrained = create_trainer(served_spec(rounds=4), tiny_dataset).fit()
        service.reload(retrained.serving_model())
        # Cached rows belonged to the old model: the next query recomputes.
        rows = service.scores([0, 1])
        assert service.cache_misses == 4
        np.testing.assert_array_equal(
            rows, Recommender.from_trainer(retrained, tiny_dataset).scores([0, 1])
        )
        # Lifetime counters survive the swap (they describe the service).
        assert service.cache_hits == 0

    def test_clear_cache_alone_leaves_fallback_stale(self, trained, tiny_dataset):
        """The regression reload() exists for: after a swap, the popularity
        fallback row is memoised against the *old* artifact, and
        clear_cache() does not touch it."""
        _, service = trained
        stale_cold = service.scores([10_000])[0]
        service.clear_cache()
        np.testing.assert_array_equal(service.scores([10_000])[0], stale_cold)
        flipped = tiny_dataset.item_popularity()[::-1].copy()
        service.reload(popularity=flipped)
        reference = PopularityRecommender(1, tiny_dataset.num_items)
        reference.fit(flipped)
        np.testing.assert_array_equal(
            service.scores([10_000])[0], reference.score_all_items(0)
        )

    def test_reload_replaces_item_mask(self, trained):
        _, service = trained
        mask = np.zeros(service.num_items, dtype=bool)
        mask[:5] = True
        service.reload(item_mask=mask)
        assert set(service.recommend(0, k=5, exclude_seen=False).tolist()) <= set(range(5))
        service.reload(item_mask=None)  # None is meaningful: unmask everything
        assert len(service.recommend(0, k=service.num_items, exclude_seen=False)) \
            == service.num_items

    def test_rejected_reload_leaves_service_untouched(self, trained):
        _, service = trained
        before = service.recommend(0, k=5)
        with pytest.raises(ValueError, match="item_mask"):
            service.reload(item_mask=np.ones(service.num_items + 1, dtype=bool))
        np.testing.assert_array_equal(service.recommend(0, k=5), before)

    def test_from_trainer_into_reloads_in_place(self, trained, tiny_dataset):
        adapter, service = trained
        retrained = create_trainer(served_spec(rounds=4), tiny_dataset).fit()
        reloaded = Recommender.from_trainer(retrained, tiny_dataset, into=service)
        assert reloaded is service
        fresh = Recommender.from_trainer(retrained, tiny_dataset)
        users = tiny_dataset.users[:10]
        np.testing.assert_array_equal(
            service.recommend(users, k=10), fresh.recommend(users, k=10)
        )


class TestCacheThreadSafety:
    def test_concurrent_queries_keep_cache_consistent(self, trained, tiny_dataset):
        """Hammer one facade from many threads; the OrderedDict LRU must
        neither corrupt nor miscount (regression: unguarded move_to_end /
        eviction under the threaded gateway)."""
        import threading

        adapter, _ = trained
        service = Recommender.from_trainer(adapter, tiny_dataset, cache_size=8)
        users = tiny_dataset.users
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    user = int(users[rng.integers(len(users))])
                    row = service.scores([user])[0]
                    assert row.shape == (service.num_items,)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(service._cache) <= 8
        # Every lookup was tallied exactly once, under the lock.
        assert service.cache_hits + service.cache_misses == 8 * 200


class TestReloadRaceConsistency:
    """Regression for the worst finding of the `guarded-by` lint sweep.

    Before the snapshot refactor, ``scores()``/``recommend()`` read
    ``model``/``_popularity``/``_item_mask``/``_seen`` *outside* the
    service lock while ``reload()`` replaced them under it: a query racing
    a reload could return rows from the retired model cut by the new
    catalogue state, and a late ``_cache_put`` could poison the fresh
    cache with retired-model rows.  Every query now runs on one
    epoch-stamped snapshot; this test hammers exactly that interleaving.
    """

    def test_reload_under_load_never_tears_a_snapshot(self, tiny_dataset, rngs):
        import threading

        users = [int(user) for user in tiny_dataset.users]
        model_a = MatrixFactorization(
            tiny_dataset.num_users, tiny_dataset.num_items,
            embedding_dim=4, rng=rngs.spawn("race-model-a"),
        )
        model_b = MatrixFactorization(
            tiny_dataset.num_users, tiny_dataset.num_items,
            embedding_dim=4, rng=rngs.spawn("race-model-b"),
        )
        # Pin exactly-representable embeddings (multiples of 2^-3): every
        # partial product is exact, so scores are bit-identical regardless
        # of cohort size or BLAS blocking and each row's generation is
        # decidable by exact comparison.
        user_col = (np.arange(tiny_dataset.num_users, dtype=np.float64) + 1.0) * 0.125
        item_col = (np.arange(tiny_dataset.num_items, dtype=np.float64) + 1.0) * 0.125
        for sign, model in ((1.0, model_a), (-1.0, model_b)):
            model.user_embedding.weight.data[:] = sign * user_col[:, None]
            model.item_embedding.weight.data[:] = item_col[:, None]
        expected = {
            id(model): {
                user: row
                for user, row in zip(users, batch_scores(model, np.asarray(users)))
            }
            for model in (model_a, model_b)
        }
        assert not np.array_equal(  # the two generations must be tellable apart
            expected[id(model_a)][users[0]], expected[id(model_b)][users[0]]
        )
        seen = {user: tiny_dataset.train_items(user) for user in users}
        service = Recommender(model_a, seen_items=seen, cache_size=8)

        stop = threading.Event()
        errors = []
        lookups = [0] * 4

        def reader(slot: int) -> None:
            rng = np.random.default_rng(slot)
            try:
                while not stop.is_set():
                    cohort = [int(u) for u in rng.choice(users, size=4, replace=False)]
                    rows = service.scores(cohort)
                    lookups[slot] += len(cohort)
                    generations = set()
                    for user, row in zip(cohort, rows):
                        if np.array_equal(row, expected[id(model_a)][user]):
                            generations.add("a")
                        elif np.array_equal(row, expected[id(model_b)][user]):
                            generations.add("b")
                        else:
                            raise AssertionError(
                                f"user {user}: row matches neither model generation"
                            )
                    if len(generations) != 1:
                        raise AssertionError(
                            "one scores() call mixed rows from both generations"
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        # Hammer reloads while the readers run: 200 model flips, each
        # clearing the cache and bumping the epoch.
        for index in range(200):
            service.reload(model_b if index % 2 == 0 else model_a)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors[:1]
        # Telemetry stayed exact under the stampede: every warm lookup
        # tallied exactly one hit or miss (no cold users in the cohorts).
        assert service.cache_hits + service.cache_misses == sum(lookups)
        assert service.cold_hits == 0
        assert len(service._cache) <= 8

    def test_stale_put_cannot_poison_a_fresh_cache(self, tiny_dataset, rngs):
        """Deterministic replay of the ABA interleaving: a row computed
        against the pre-reload snapshot must be dropped, not cached."""
        users = [int(user) for user in tiny_dataset.users[:3]]
        model_a = MatrixFactorization(
            tiny_dataset.num_users, tiny_dataset.num_items,
            embedding_dim=4, rng=rngs.spawn("stale-a"),
        )
        model_b = MatrixFactorization(
            tiny_dataset.num_users, tiny_dataset.num_items,
            embedding_dim=4, rng=rngs.spawn("stale-b"),
        )
        service = Recommender(model_a, seen_items={u: [] for u in users})
        stale = service._snapshot()  # a reader captured the old generation...
        service.reload(model_b)  # ...then the swap landed
        row_a = service._scores_from(stale, [users[0]])[0]  # late completion
        np.testing.assert_array_equal(
            row_a, batch_scores(model_a, np.asarray(users[:1]))[0]
        )
        assert not service._cache, "stale-epoch row must not enter the new cache"
        row_b = service.scores([users[0]])[0]
        np.testing.assert_array_equal(
            row_b, batch_scores(model_b, np.asarray(users[:1]))[0]
        )


class TestFromCheckpoint:
    def test_checkpoint_and_in_memory_services_agree(self, tiny_dataset, tmp_path):
        spec = served_spec()
        callback = CheckpointEveryK(tmp_path / "ck", every=2, spec=spec)
        adapter = create_trainer(spec, tiny_dataset)
        adapter.fit(callbacks=[callback])

        from_memory = Recommender.from_trainer(adapter, tiny_dataset)
        from_artifact = Recommender.from_checkpoint(tmp_path / "ck" / "latest")
        users = tiny_dataset.users[:10]
        np.testing.assert_array_equal(
            from_memory.recommend(users, k=10), from_artifact.recommend(users, k=10)
        )
