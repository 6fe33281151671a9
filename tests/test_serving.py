"""Tests for the online serving layer (batched, cached cost inference).

Covers the PR's equivalence guarantees:

(a) cached integer encodings describe the same tree and the same feature
    rows as the reference encoder, and layer 1 looked up from the projection
    table equals the dense layer-1 GEMM;
(b) bucketed float32 batch predictions match the naive autodiff path within
    float32 tolerance (and a float64 service matches far tighter);
(c) cache eviction and invalidation behave under LRU pressure;

plus the ``TreeBatch`` child-index validation bugfix and the serving-layer
routing of ``AdaptiveCostPredictor.predict``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.encoding import PlanEncoder
from repro.core.explorer import PlanExplorer
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.nn.tree_conv import TreeBatch
from repro.serving import (
    CostInferenceService,
    LRUCache,
    plan_fingerprint,
)
from repro.serving import fingerprint as fingerprint_module
from repro.serving import service as service_module
from repro.serving.cache import ENCODING_CACHE_SIZE, ProjectionTable
from repro.serving.fingerprint import plan_id, plan_nodes
from repro.serving.service import _combined_gather_index
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.workload import generate_project

TINY = PredictorConfig(epochs=2, hidden_dims=(16, 16), embedding_dim=8, adversarial=False)


@pytest.fixture(scope="module")
def trained(project_with_history):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    return predictor, plans


@pytest.fixture(scope="module")
def candidate_sets(small_profile):
    """600 candidate sets from a project of this module's own (sampling
    queries advances the project's rng, and the shared one is read-only)."""
    project = generate_project(replace(small_profile, name="servproj"))
    explorer = PlanExplorer(project.optimizer)
    sets = []
    while len(sets) < 600:
        plans = explorer.candidates(project.sample_query(0), top_k=5)
        if len(plans) >= 2:
            sets.append(plans)
    return sets


def _fresh_envs(n, seed=5):
    rng = np.random.default_rng(seed)
    return [tuple(row) for row in np.round(0.2 + 0.6 * rng.random((n, 4)), 6).tolist()]


def _table(service) -> ProjectionTable:
    service._current_pack()
    return service._table


def _chain(nodes, query) -> PhysicalPlan:
    """Copies of ``nodes`` strung into a one-child-each plan, first on top."""
    child = None
    for node in reversed(nodes):
        copy = node.__class__(**node._ctor_kwargs())
        copy.children = [] if child is None else [child]
        child = copy
    return PhysicalPlan(root=child, query=query)


# -- (a) plans as integers, layer 1 as a lookup -----------------------------------


class TestEnvSpliceEquivalence:
    def test_spliced_cache_bitwise_equals_full_reencode(self, trained):
        """What the plan cache holds, read back through the table, is the
        reference encoding: same child pointers, and every node id stands
        for the reference feature row with its environment block zeroed."""
        predictor, plans = trained
        service = CostInferenceService(predictor)
        encoder = predictor.encoder
        table = _table(service)
        for plan in plans[:10]:
            fingerprint = plan_fingerprint(plan)
            (ints,) = service._encode_pending([plan], [plan_id(plan)])
            assert service.encoding_cache.get(plan_id(plan)) is ints
            assert ints.dtype.kind == "i"
            reference = encoder.encode_plan_reference(plan, env_override=(0.7, 0.02, 0.9, 0.4))
            assert (ints[3] == reference.left).all()
            assert (ints[4] == reference.right).all()
            # Child ids are the node ids read through the child pointers.
            ids = np.concatenate(([0], ints[0]))
            assert (ints[1] == ids[reference.left]).all()
            assert (ints[2] == ids[reference.right]).all()
            zeroed = reference.features.copy()
            zeroed[:, encoder.env_slice] = 0.0
            for i, (key, node) in enumerate(zip(fingerprint, plan_nodes(plan))):
                assert table.ids[key] == ints[0, i]
                assert (encoder.structural_row(node) == zeroed[i]).all()

    def test_vectorized_encoding_bitwise_equals_reference(self, trained):
        _, plans = trained
        encoder = PlanEncoder()
        for plan in plans[:10]:
            for env in (None, (0.25, 0.5, 0.75, 1.0)):
                fast = encoder.encode_plan(plan, env_override=env)
                ref = encoder.encode_plan_reference(plan, env_override=env)
                assert (fast.features == ref.features).all()
                assert (fast.left == ref.left).all()
                assert (fast.right == ref.right).all()

    def test_cache_hit_on_second_request(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:5], env_features=(0.5, 0.05, 0.5, 0.5))
        misses = service.encoding_cache.misses
        service.predict(plans[:5], env_features=(0.1, 0.2, 0.3, 0.4))
        assert service.encoding_cache.misses == misses  # no re-encoding
        # The assembled-bucket fast path serves the repeat structural batch
        # without even probing the per-plan encoding cache.
        assert service.encoding_cache.hits == 0

    def test_logged_env_read_fresh_after_mutation(self, trained):
        """env_features=None must reflect *current* node.env annotations even
        when the base encoding was cached before the mutation."""
        predictor, plans = trained
        plan = plans[0].clone()
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        before = service.predict([plan])[0]
        for node in plan.iter_nodes():
            node.env = (1.0, 0.0, 0.0, 0.0)
        after = service.predict([plan])[0]
        baseline = predictor.predict_baseline([plan])[0]
        assert after != before
        np.testing.assert_allclose(after, baseline, rtol=1e-5)


# -- (b) bucketed batching matches the naive path -------------------------------


class TestPredictionEquivalence:
    def test_float32_service_matches_baseline(self, trained):
        predictor, plans = trained
        mixed = plans[:16]  # varied node counts -> multiple size buckets
        for env in (None, (0.5, 0.05, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0)):
            fast = predictor.predict(mixed, env_features=env)
            naive = predictor.predict_baseline(mixed, env_features=env)
            np.testing.assert_allclose(fast, naive, rtol=1e-5)

    def test_float64_service_matches_tightly(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor, dtype=np.float64)
        fast = service.predict(plans[:16], env_features=(0.5, 0.05, 0.5, 0.5))
        naive = predictor.predict_baseline(plans[:16], env_features=(0.5, 0.05, 0.5, 0.5))
        np.testing.assert_allclose(fast, naive, rtol=1e-9)

    def test_bucketing_independent_of_batch_composition(self, trained):
        """A plan's prediction must not depend on which other plans share the
        request (padding rows are masked)."""
        predictor, plans = trained
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        env = (0.5, 0.05, 0.5, 0.5)
        alone = service.predict([plans[0]], env_features=env)[0]
        together = service.predict(plans[:16], env_features=env)[0]
        np.testing.assert_allclose(alone, together, rtol=1e-6)

    def test_warm_prediction_cache_identical(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        env = (0.5, 0.05, 0.5, 0.5)
        cold = service.predict(plans[:8], env_features=env)
        hits_before = service.prediction_cache.hits
        warm = service.predict(plans[:8], env_features=env)
        assert service.prediction_cache.hits >= hits_before + 8
        np.testing.assert_array_equal(cold, warm)

    def test_select_best_consistent_with_predict(self, trained):
        predictor, plans = trained
        env = (0.5, 0.05, 0.5, 0.5)
        chosen, predictions = predictor.select_best(plans[:6], env_features=env)
        assert chosen is plans[:6][int(np.argmin(predictions))]
        served = predictor.serving.predict(plans[:6], env_features=env)
        assert int(np.argmin(served)) == int(np.argmin(predictions))

    def test_refit_invalidates_weight_snapshot(self, trained, project_with_history):
        records = project_with_history.repository.records[:40]
        plans = [r.plan for r in records]
        costs = [r.cpu_cost for r in records]
        predictor = AdaptiveCostPredictor(config=TINY)
        predictor.fit(plans, costs)
        before = predictor.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        predictor.fit(plans, [c * 40.0 for c in costs])
        after = predictor.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        naive = predictor.predict_baseline(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, naive, rtol=1e-5)

    def test_empty_request(self, trained):
        predictor, _ = trained
        assert predictor.predict([]).shape == (0,)


# -- (c) LRU pressure -----------------------------------------------------------


class TestCacheBehaviour:
    def test_lru_evicts_oldest(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_lru_access_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" now most-recent; "b" is eviction candidate
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_invalidate(self):
        """``clear`` drops every entry and leaves the counters to
        ``reset_counters``."""
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert (cache.hits, cache.misses, cache.evictions) == (0, 1, 0)

    def test_service_under_lru_pressure_stays_correct(self, trained, candidate_sets):
        predictor, _plans = trained
        service = CostInferenceService(predictor)
        env = (0.5, 0.05, 0.5, 0.5)
        # More distinct plans than the plan cache holds.
        distinct = {plan_fingerprint(p): p for plans in candidate_sets for p in plans}
        many = list(distinct.values())[: ENCODING_CACHE_SIZE + 64]
        assert len(many) > ENCODING_CACHE_SIZE
        out = service.predict(many, env_features=env)
        assert service.encoding_cache.evictions > 0
        naive = predictor.predict_baseline(many, env_features=env)
        np.testing.assert_allclose(out, naive, rtol=1e-5)
        # A second pass (reversed: new buckets, so no assembly-cache hit; a
        # second environment: no prediction-cache hit) re-encodes what was
        # evicted but stays correct.
        env2 = (0.4, 0.1, 0.6, 0.3)
        encoded = service.encoding_cache.misses
        again = service.predict(many[::-1], env_features=env2)
        assert service.encoding_cache.misses > encoded
        naive2 = predictor.predict_baseline(many[::-1], env_features=env2)
        np.testing.assert_allclose(again, naive2, rtol=1e-5)

    def test_clear_caches(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4], env_features=(0.5, 0.05, 0.5, 0.5))
        assert len(service.encoding_cache) > 0
        service.clear_caches()
        assert len(service.encoding_cache) == 0
        assert len(service.prediction_cache) == 0

    def test_stats_counters(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        service.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        counters = service.cache_counters()
        assert counters["requests"] == 2
        assert counters["plans_scored"] == 12
        assert counters["prediction_cache_hits"] >= 6
        assert counters["prediction_cache_misses"] == 6


# -- fingerprinting --------------------------------------------------------------


class TestFingerprint:
    def test_identical_structure_same_key(self, trained):
        _, plans = trained
        assert plan_fingerprint(plans[0]) == plan_fingerprint(plans[0].clone())

    def test_different_plans_different_keys(self, trained):
        _, plans = trained
        keys = {plan_fingerprint(p) for p in plans[:20]}
        signatures = {p.structural_signature() for p in plans[:20]}
        assert len(keys) == len(signatures)

    def test_env_annotations_do_not_affect_key(self, trained):
        _, plans = trained
        plan = plans[0].clone()
        key = plan_fingerprint(plan)
        for node in plan.iter_nodes():
            node.env = (0.9, 0.9, 0.9, 0.9)
        assert plan_fingerprint(plan) == key


class TestPlanIds:
    """Every serving cache keys on ``plan_id``: an int interned once per
    fingerprint per process, memoized on the plan, never reused."""

    def test_warm_repeat_requests_compute_no_fingerprint(self, trained, monkeypatch):
        # A table of its own: a clear would re-mint the clone's id below.
        monkeypatch.setattr(fingerprint_module, "_interned", {})
        predictor, plans = trained
        service = CostInferenceService(predictor)
        fresh = [p.clone() for p in plans[:15]]
        for request in (fresh[:5], fresh[5:]):  # small and wide paths
            service.predict(request, env_features=COLD_ENV)
            service.predict(request)
        calls: list = []
        original = fingerprint_module.plan_fingerprint

        def counting(plan):
            calls.append(plan)
            return original(plan)

        monkeypatch.setattr(fingerprint_module, "plan_fingerprint", counting)
        monkeypatch.setattr(service_module, "plan_fingerprint", counting)
        for request in (fresh[:5], fresh[5:]):
            service.predict(request, env_features=COLD_ENV)  # prediction hits
            service.predict(request, env_features=(0.3, 0.3, 0.3, 0.3))  # bucket hits
            service.predict(request)  # logged environments
        assert calls == []
        keys = list(service.prediction_cache._store)
        assert keys and all(
            isinstance(pid, int) and isinstance(env, tuple) for pid, env in keys
        )
        # A clone is a new plan object with the same fingerprint: hashed
        # once to find its id, then a cache hit like its original.
        clone = fresh[0].clone()
        hits = service.prediction_cache.hits
        service.predict([clone], env_features=COLD_ENV)
        assert service.prediction_cache.hits == hits + 1
        assert calls == [clone] and plan_id(clone) == plan_id(fresh[0])

    def test_a_pickled_plan_carries_no_id(self, trained):
        import pickle

        _, plans = trained
        plan = plans[0].clone()
        pid = plan_id(plan)
        restored = pickle.loads(pickle.dumps(plan))
        assert "_serving_id" not in restored.__dict__
        assert plan.__dict__["_serving_id"] == pid  # the sender keeps its memo
        assert plan_id(restored) == pid  # same process, same fingerprint

    def test_answers_across_an_intern_table_clear_match_a_fresh_service(
        self, trained, candidate_sets, monkeypatch
    ):
        monkeypatch.setattr(fingerprint_module, "INTERN_CAPACITY", 6)
        monkeypatch.setattr(fingerprint_module, "_interned", {})
        predictor, _ = trained
        sets = candidate_sets[:12]
        envs = _fresh_envs(len(sets), seed=9)
        want = [
            CostInferenceService(predictor).predict(
                [p.clone() for p in plans], env_features=env
            )
            for plans, env in zip(sets, envs)
        ]
        service = CostInferenceService(predictor)
        minted: dict = {}
        for _round in range(3):
            for plans, env, expected in zip(sets, envs, want):
                # The set's own objects keep ids minted rounds (and clears)
                # ago and hit; clones after a clear are minted new ids.
                for request in (plans, [p.clone() for p in plans]):
                    got = service.predict(request, env_features=env)
                    np.testing.assert_array_equal(got, expected)
                    for plan in request:
                        minted.setdefault(plan_fingerprint(plan), set()).add(plan_id(plan))
        assert len(fingerprint_module._interned) <= 6
        assert any(len(ids) > 1 for ids in minted.values())
        assert service.cache_counters()["prediction_cache_hits"] > 0


# -- TreeBatch validation (satellite bugfix) -------------------------------------


class TestTreeBatchValidation:
    def _tree(self, n: int, dim: int = 4):
        features = np.ones((n, dim))
        left = np.zeros(n, dtype=np.int64)
        right = np.zeros(n, dtype=np.int64)
        return features, left, right

    def test_valid_tree_accepted(self):
        f, l, r = self._tree(3)
        l[0], r[0] = 2, 3
        batch = TreeBatch.from_trees([(f, l, r)])
        assert batch.features.shape[0] == 1

    def test_out_of_range_left_rejected(self):
        f, l, r = self._tree(3)
        l[0] = 4  # only rows 0..3 exist
        with pytest.raises(ValueError, match="left child indices"):
            TreeBatch.from_trees([(f, l, r)])

    def test_negative_right_rejected(self):
        f, l, r = self._tree(3)
        r[1] = -1
        with pytest.raises(ValueError, match="right child indices"):
            TreeBatch.from_trees([(f, l, r)])

    def test_pad_to_below_largest_rejected(self):
        f, l, r = self._tree(5)
        with pytest.raises(ValueError, match="pad_to"):
            TreeBatch.from_trees([(f, l, r)], pad_to=3)

    def test_pad_to_and_dtype(self):
        f, l, r = self._tree(3)
        batch = TreeBatch.from_trees([(f, l, r)], dtype=np.float32, pad_to=8)
        assert batch.features.shape == (1, 9, 4)
        assert batch.features.dtype == np.float32
        assert batch.mask[0, :, 0].sum() == 3.0

    def test_bucket_indices_grouping(self):
        buckets = TreeBatch.bucket_indices([3, 5, 9, 40, 8, 2])
        as_dict = {size: idx for size, idx in buckets}
        assert as_dict[8] == [0, 1, 4, 5]
        assert as_dict[16] == [2]
        assert as_dict[64] == [3]

    def test_bucket_indices_max_batch_split(self):
        buckets = TreeBatch.bucket_indices([4] * 5, max_batch=2)
        assert [len(idx) for _, idx in buckets] == [2, 2, 1]
        assert sorted(i for _, idx in buckets for i in idx) == [0, 1, 2, 3, 4]


# -- checkpoint <-> serving equivalence (lifecycle satellite) ---------------------


class TestCheckpointServingEquivalence:
    def test_loaded_service_bitwise_matches_presave_service(self, trained, tmp_path):
        """load_predictor into a CostInferenceService must reproduce the
        pre-save service's predictions bitwise — the invariant the registry
        hot swap and rollback paths depend on."""
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        env = (0.5, 0.05, 0.5, 0.5)
        before = CostInferenceService(predictor).predict(plans[:12], env_features=env)
        path = save_predictor(predictor, tmp_path / "ckpt.npz", environment_features=env)
        loaded, stored_env = load_predictor(path)
        after = CostInferenceService(loaded).predict(plans[:12], env_features=stored_env)
        np.testing.assert_array_equal(before, after)

    def test_loaded_service_matches_under_env_override(self, trained, tmp_path):
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        path = save_predictor(predictor, tmp_path / "ckpt.npz")
        loaded, _ = load_predictor(path)
        for env in (None, (0.9, 0.1, 0.2, 0.8)):
            before = CostInferenceService(predictor).predict(plans[:8], env_features=env)
            after = CostInferenceService(loaded).predict(plans[:8], env_features=env)
            np.testing.assert_array_equal(before, after)


class TestSwapPredictor:
    def _second_predictor(self, project_with_history, scale=40.0):
        records = project_with_history.repository.records[:80]
        plans = [r.plan for r in records]
        costs = [r.cpu_cost * scale for r in records]
        other = AdaptiveCostPredictor(config=TINY)
        other.fit(plans, costs)
        return other

    def test_swap_invalidates_both_cache_tiers(self, trained, project_with_history):
        predictor, plans = trained
        other = self._second_predictor(project_with_history)
        service = CostInferenceService(predictor)
        env = (0.5, 0.05, 0.5, 0.5)
        before = service.predict(plans[:8], env_features=env)
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) > 0

        service.swap_predictor(other)
        assert len(service.encoding_cache) == 0
        assert len(service.prediction_cache) == 0
        after = service.predict(plans[:8], env_features=env)
        assert not np.allclose(before, after)
        # Post-swap output equals a fresh service around the new model.
        fresh = CostInferenceService(other).predict(plans[:8], env_features=env)
        np.testing.assert_array_equal(after, fresh)

    def test_swap_bumps_weights_version_monotonically(self, trained, project_with_history, tmp_path):
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4], env_features=(0.5, 0.05, 0.5, 0.5))
        incumbent_version = predictor.weights_version
        # A replacement loaded from an old checkpoint can carry a stale
        # (lower) counter; the swap must still move versions forward.
        stale, _ = load_predictor(save_predictor(predictor, tmp_path / "stale.npz"))
        stale.weights_version = 0
        service.swap_predictor(stale)
        assert service.predictor is stale
        assert service.weights_version == incumbent_version + 1
        assert stale.weights_version == 0

    def test_swap_leaves_the_callers_predictor_unchanged(self, trained, tmp_path):
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        shared, _ = load_predictor(save_predictor(predictor, tmp_path / "shared.npz"))
        shared.weights_version = 0
        first, second = CostInferenceService(predictor), CostInferenceService(shared)
        served = [(first.weights_version, second.weights_version)]
        for service in (first, second):
            service.swap_predictor(shared)
            service.predict(plans[:4], env_features=(0.5, 0.05, 0.5, 0.5))
        served.append((first.weights_version, second.weights_version))
        assert shared.weights_version == 0
        assert served[1][0] > served[0][0] and served[1][1] > served[0][1]
        # Refitting the shared object moves both services forward from
        # where each stands.
        shared.weights_version += 1
        assert (first.weights_version, second.weights_version) == (
            served[1][0] + 1, served[1][1] + 1,
        )

    def test_swap_rejects_incompatible_encoder(self, trained):
        predictor, _ = trained
        other = AdaptiveCostPredictor(
            PlanEncoder(hash_segments=2, hash_segment_dim=4), TINY
        )
        service = CostInferenceService(predictor)
        with pytest.raises(ValueError, match="encoder-compatible"):
            service.swap_predictor(other)


# -- cold-path acceleration (projection table, warming) ----------------------------


COLD_ENV = (0.5, 0.05, 0.5, 0.5)


def _fit_second_predictor(project_with_history, scale=40.0):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost * scale for r in records]
    other = AdaptiveCostPredictor(config=TINY)
    other.fit(plans, costs)
    return other


class TestEncodeMemo:
    def test_node_keys_encoding_bitwise_equals_reference(self, trained):
        predictor, plans = trained
        encoder = PlanEncoder()
        table = ProjectionTable(encoder, _table(CostInferenceService(predictor)).packed, np.float32)
        for plan in plans[:10]:
            fingerprint = plan_fingerprint(plan)
            reference = encoder.encode_plan_reference(plan, env_override=(0.0,) * 4)
            # First pass fills the table, second finds every node key in it.
            first = table.plan_ints(plan, fingerprint)
            second = table.plan_ints(plan, fingerprint)
            assert (first == second).all()
            assert (first[3] == reference.left).all()
            assert (first[4] == reference.right).all()
            for node, row in zip(plan_nodes(plan), reference.features):
                assert (encoder.structural_row(node) == row).all()
        # One id per distinct node key, none of them the zero row.
        assert sorted(table.ids.values()) == list(range(1, len(table) + 1))

    def test_memoized_arrays_are_not_aliased(self, trained):
        """The forward works in place on arena buffers; neither a bucket's
        cached pre-activation nor the table rows behind it may be among
        them, or the second scoring of a cached bucket would drift."""
        predictor, plans = trained
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        table = _table(service)
        first = service.predict(plans[:6], env_features=COLD_ENV)
        rows = table.rows[:, : len(table) + 1].copy()
        (entry,) = service._bucket_cache.values()
        h1_base = entry.h1_base.copy()
        service.predict(plans[:6], env_features=(0.9, 0.1, 0.2, 0.8))
        service.predict(plans[:6])
        again = service.predict(plans[:6], env_features=COLD_ENV)
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(entry.h1_base, h1_base)
        np.testing.assert_array_equal(table.rows[:, : len(table) + 1], rows)


class TestProjectionTable:
    def test_rows_are_structural_row_times_each_weight_block(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans, env_features=COLD_ENV)
        table = service._table
        w3 = table.packed.conv[0][0]
        assert not table.rows[:, 0].any()  # absent child / sentinel / padding
        seen = set()
        for plan in plans:
            for key, node in zip(plan_fingerprint(plan), plan_nodes(plan)):
                if key in seen:
                    continue
                seen.add(key)
                row = predictor.encoder.structural_row(node).astype(np.float32)
                for block in range(3):
                    np.testing.assert_allclose(
                        table.rows[block, table.ids[key]], row @ w3[block],
                        rtol=1e-5, atol=1e-6,
                    )
        assert seen == set(table.ids)

    def test_h1_base_equals_dense_layer1_gemm(self, trained):
        predictor, plans = trained
        encoder = predictor.encoder
        service = CostInferenceService(predictor)
        bucket = plans[:7]
        service.predict(bucket, env_features=COLD_ENV)
        ((key, entry),) = service._bucket_cache.items()
        assert key[0] == tuple(plan_id(p) for p in bucket)
        # The dense form the table replaces: zero-env feature rows, one
        # interleaved self/left/right gather, one GEMM, bias, mask.
        rows = key[1] + 1
        features = np.zeros((len(bucket), rows, encoder.dim), np.float32)
        left = np.zeros((len(bucket), rows), np.int64)
        right = np.zeros((len(bucket), rows), np.int64)
        for b, plan in enumerate(bucket):
            ref = encoder.encode_plan_reference(plan, env_override=(0.0,) * 4)
            features[b, 1 : ref.n_nodes + 1] = ref.features
            left[b, 1 : ref.n_nodes + 1] = ref.left
            right[b, 1 : ref.n_nodes + 1] = ref.right
        gather_idx = _combined_gather_index(left, right)
        _w3, wflat, bias = service._table.packed.conv[0]
        gathered = features.reshape(-1, encoder.dim)[gather_idx]
        dense = gathered.reshape(len(bucket) * rows, -1) @ wflat + bias
        dense *= entry.mask.reshape(-1, 1)
        assert (entry.gather_idx == gather_idx).all()
        np.testing.assert_allclose(entry.h1_base, dense, rtol=1e-5, atol=1e-6)

    def test_predict_matches_baseline_on_every_path(self, trained, candidate_sets):
        predictor, _ = trained
        service = CostInferenceService(predictor)
        envs = _fresh_envs(3 * 40)
        for i, plans in enumerate(candidate_sets[:40]):
            env = envs[i]
            np.testing.assert_allclose(
                service.predict(plans, env_features=env),
                predictor.predict_baseline(plans, env_features=env),
                rtol=1e-5,
            )
            # Logged environments: None on fresh clones is the neutral
            # block, and a mutated ``node.env`` is read at request time.
            logged = [plan.clone() for plan in plans]
            np.testing.assert_allclose(
                service.predict(logged), predictor.predict_baseline(logged), rtol=1e-5
            )
            for k, node in enumerate(logged[0].iter_nodes()):
                node.env = envs[(i + k) % len(envs)]
            np.testing.assert_allclose(
                service.predict(logged), predictor.predict_baseline(logged), rtol=1e-5
            )

    def test_float64_service_matches_at_1e9(self, trained, candidate_sets):
        predictor, _ = trained
        service = CostInferenceService(predictor, dtype=np.float64)
        for plans, env in zip(candidate_sets[:20], _fresh_envs(20)):
            for env_features in (env, None):
                np.testing.assert_allclose(
                    service.predict(plans, env_features=env_features),
                    predictor.predict_baseline(plans, env_features=env_features),
                    rtol=1e-9,
                )

    def test_row_is_independent_of_what_else_was_projected(
        self, trained, candidate_sets, project_with_history
    ):
        """BLAS accumulation order varies with GEMM shape; a node's row must
        be a function of (node row, weights) alone or no bitwise guarantee
        (checkpoint, rollback, warm == cold) survives the table."""
        predictor, _ = trained
        other = _fit_second_predictor(project_with_history)
        service = CostInferenceService(predictor)
        query = candidate_sets[0][0].query
        # Distinct nodes, each with one child when strung into a chain.
        pool = {}
        for plans in candidate_sets[:40]:
            for plan in plans:
                for node in plan_nodes(plan):
                    pool.setdefault(plan_fingerprint(_chain([node], query))[0][:2], node)
        target, *others = pool.values()
        assert len(others) >= 40

        def row_filled_with(n_others):
            """The target's row after one plan's fill of a fresh table
            projects it together with ``n_others`` other new nodes."""
            service._reset_projection()
            table = _table(service)
            plan = _chain(others[:n_others] + [target], query)
            fingerprint = plan_fingerprint(plan)
            ints = table.plan_ints(plan, fingerprint)
            assert len(table) == n_others + 1
            return table.rows[:, ints[0, -1]].copy()

        alone = row_filled_with(0)
        for n_others in (1, 5, 40):
            np.testing.assert_array_equal(row_filled_with(n_others), alone)
        service.swap_predictor(other)
        swapped = row_filled_with(0)
        assert not np.array_equal(swapped, alone)
        for n_others in (1, 5, 40):
            np.testing.assert_array_equal(row_filled_with(n_others), swapped)
        service.swap_predictor(predictor)
        for n_others in (0, 1, 5, 40):
            np.testing.assert_array_equal(row_filled_with(n_others), alone)

    def test_table_full_clears_every_holder_of_its_ids(
        self, trained, candidate_sets, monkeypatch
    ):
        from repro.serving import cache

        monkeypatch.setattr(cache, "TABLE_CAPACITY", 64)
        predictor, _ = trained
        service = CostInferenceService(predictor)
        envs = _fresh_envs(2 * len(candidate_sets))
        clears = 0
        for i, env in enumerate(envs):
            plans = candidate_sets[i % len(candidate_sets)]
            table = _table(service)
            got = service.predict(plans, env_features=env)
            # A request straddling the clear is answered against the table
            # its ids were resolved in, and leaves nothing dangling behind.
            np.testing.assert_allclose(
                got, predictor.predict_baseline(plans, env_features=env), rtol=1e-5
            )
            if service._table is not table:
                clears += 1
                assert service._table is None
                assert len(service.encoding_cache) == 0
                assert len(service._bucket_cache) == 0
            else:
                assert len(table) <= 64
        assert clears > 10
        # Wide requests resolve many plans before their first gather.
        wide = [p for plans in candidate_sets[:40] for p in plans]
        np.testing.assert_allclose(
            service.predict(wide, env_features=envs[0]),
            predictor.predict_baseline(wide, env_features=envs[0]),
            rtol=1e-5,
        )
        assert service._table is None or len(service._table) <= 64

    def test_second_pass_builds_no_features(self, trained, candidate_sets, monkeypatch):
        predictor, _ = trained
        encoder = predictor.encoder
        service = CostInferenceService(predictor)
        sets = candidate_sets[:50]
        for plans, env in zip(sets, _fresh_envs(50, seed=1)):
            service.predict(plans, env_features=env)
        calls = {"encode_plan": 0, "structural_row": 0}
        for name in calls:
            original = getattr(PlanEncoder, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(PlanEncoder, name, counting)
        for plans, env in zip(sets, _fresh_envs(50, seed=2)):
            service.predict(plans, env_features=env)
        assert calls == {"encode_plan": 0, "structural_row": 0}
        # Every request ran its forward.
        assert service.cache_counters()["prediction_cache_hits"] == 0

        cached = list(service.encoding_cache._store.values())
        for entry in service._bucket_cache.values():
            cached.extend(getattr(entry, slot) for slot in entry.__slots__)
        arrays = [a for a in cached if isinstance(a, np.ndarray)]
        assert len(arrays) > 4 * len(service._bucket_cache)
        assert all(a.shape[-1] != encoder.dim for a in arrays)
        assert all(a.dtype.kind == "i" for a in service.encoding_cache._store.values())


class TestWarming:
    def test_warm_caches_populates_both_tiers(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        warmed = service.warm_caches((p, COLD_ENV) for p in plans[:10])
        assert warmed == 10
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) > 0
        assert service.cache_counters()["warmed_plans"] == 10
        service.reset_stats()
        service.predict(plans[:10], env_features=COLD_ENV)
        counters = service.cache_counters()
        assert counters["prediction_cache_hits"] == 10
        assert counters["prediction_cache_misses"] == 0

    def test_warm_without_env_fills_encoding_tier_only(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.warm_caches([(plans[0], None)])
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) == 0  # no env key to cache under

    def test_swap_with_warm_serves_first_batch_from_cache(self, trained, project_with_history):
        predictor, plans = trained
        replacement = _fit_second_predictor(project_with_history)
        service = CostInferenceService(predictor)
        service.predict(plans[:8], env_features=COLD_ENV)
        service.swap_predictor(
            replacement, warm=[(p, COLD_ENV) for p in plans[:8]]
        )
        service.reset_stats()
        got = service.predict(plans[:8], env_features=COLD_ENV)
        counters = service.cache_counters()
        assert counters["prediction_cache_hits"] == 8
        assert counters["prediction_cache_misses"] == 0
        # Warmed values come from the *new* model.
        fresh = CostInferenceService(replacement).predict(plans[:8], env_features=COLD_ENV)
        np.testing.assert_array_equal(got, fresh)


class TestColdPathStats:
    def test_timing_attribution_accumulates(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:10], env_features=COLD_ENV)
        first = service.cache_counters()
        assert first["encode_seconds"] > 0.0
        assert first["forward_seconds"] > 0.0
        service.predict(plans[10:20], env_features=COLD_ENV)
        second = service.cache_counters()
        assert second["encode_seconds"] > first["encode_seconds"]
        assert second["forward_seconds"] > first["forward_seconds"]

    def test_cache_counters_export_cold_path_gauges(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:5], env_features=COLD_ENV)
        counters = service.cache_counters()
        for key in ("encode_seconds", "forward_seconds", "warmed_plans"):
            assert key in counters
        assert counters["encode_seconds"] > 0.0
