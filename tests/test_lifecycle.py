"""Tests for the model lifecycle subsystem (registry, feedback, drift, canary).

The end-to-end acceptance scenario: an injected regressed candidate is
rejected by the canary gate and the incumbent keeps serving unchanged; a
genuinely better candidate is promoted, ``weights_version`` bumps, both
serving-cache tiers invalidate, post-swap predictions match a fresh
service built from the new checkpoint; registry rollback restores the
previous version exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.serialization import load_predictor, save_predictor
from repro.lifecycle import (
    CanaryConfig,
    CanaryController,
    DriftConfig,
    DriftMonitor,
    FeedbackLog,
    FeedbackRecord,
    ModelLifecycle,
    ModelRegistry,
    plan_digest,
    training_data_fingerprint,
)
from repro.lifecycle.manager import WARM_TOP_K
from repro.serving.service import CostInferenceService

TINY = PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=4, adversarial=False)
ENV = (0.5, 0.05, 0.5, 0.5)


@pytest.fixture(scope="module")
def pool(project_with_history):
    records = project_with_history.repository.deduplicated()[:60]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    return predictor, plans, costs


def _perturbed(predictor, tmp_path, *, sigma: float, seed: int = 0):
    """A weight-perturbed copy: the 'injected regressed candidate'."""
    path = save_predictor(predictor, tmp_path / f"perturbed-{sigma}-{seed}.npz")
    copy, _ = load_predictor(path)
    rng = np.random.default_rng(seed)
    for param in copy.module.parameters():
        param.data = param.data + rng.normal(0.0, sigma, param.data.shape)
    return copy


# -- registry ---------------------------------------------------------------------


class TestModelRegistry:
    def test_register_without_promote_leaves_current_unset(self, pool, tmp_path):
        predictor, _, _ = pool
        registry = ModelRegistry(tmp_path / "reg")
        entry = registry.register(predictor)
        assert entry.version == 1
        assert not entry.promoted
        assert registry.current is None
        assert (tmp_path / "reg" / entry.path).exists()
        assert (tmp_path / "reg" / "registry.json").exists()

    def test_register_promote_and_reload_from_disk(self, pool, tmp_path):
        predictor, plans, costs = pool
        fingerprint = training_data_fingerprint(plans, costs)
        registry = ModelRegistry(tmp_path / "reg")
        entry = registry.register(
            predictor,
            environment_features=ENV,
            training_fingerprint=fingerprint,
            metrics={"improvement": 0.12},
            promote=True,
        )
        assert registry.current.version == entry.version
        # A fresh instance over the same root sees identical state.
        reopened = ModelRegistry(tmp_path / "reg")
        assert reopened.current.version == entry.version
        assert reopened.current.training_fingerprint == fingerprint
        assert reopened.current.metrics["improvement"] == pytest.approx(0.12)
        loaded, env = reopened.load()
        assert env == pytest.approx(ENV)
        assert loaded.weights_version == predictor.weights_version

    def test_promotion_history_and_rollback(self, pool, tmp_path):
        predictor, _, _ = pool
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(predictor, promote=True)
        registry.register(predictor, promote=True)
        assert registry.current.version == 2
        assert registry.rollback().version == 1
        assert registry.current.version == 1
        with pytest.raises(RuntimeError):
            registry.rollback()

    def test_unknown_version_raises(self, pool, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(KeyError):
            registry.promote(3)

    def test_manifest_is_valid_json_after_every_write(self, pool, tmp_path):
        predictor, _, _ = pool
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(predictor, promote=True)
        state = json.loads((tmp_path / "reg" / "registry.json").read_text())
        assert state["current"] == 1
        assert state["entries"]["1"]["weights_version"] == predictor.weights_version


# -- feedback log -----------------------------------------------------------------


class TestFeedbackLog:
    def test_bounded_with_dropped_counter(self, pool):
        _, plans, costs = pool
        log = FeedbackLog(capacity=8)
        for plan, cost in zip(plans[:12], costs[:12]):
            log.record(plan, cost * 1.1, cost, env_features=ENV)
        assert len(log) == 8
        assert log.appended == 12
        assert log.dropped == 4

    def test_record_fields(self, pool):
        _, plans, costs = pool
        log = FeedbackLog()
        rec = log.record(plans[0], 120.0, 100.0, env_features=ENV, day=3, model_version=2)
        assert rec.fingerprint == plan_digest(plans[0])
        assert rec.q_error == pytest.approx(1.2)
        assert rec.plan is plans[0]
        assert rec.day == 3 and rec.model_version == 2

    def test_held_out_deterministic_subset(self, pool):
        _, plans, costs = pool
        log = FeedbackLog()
        for plan, cost in zip(plans, costs):
            log.record(plan, cost, cost, env_features=ENV)
        held_a = log.held_out(0.3)
        held_b = log.held_out(0.3)
        assert [r.fingerprint for r in held_a] == [r.fingerprint for r in held_b]
        assert 0 < len(held_a) < len(log)

    def test_held_out_min_records_fallback(self, pool):
        _, plans, costs = pool
        log = FeedbackLog()
        log.record(plans[0], costs[0], costs[0])
        held = log.held_out(0.25, min_records=1)
        assert len(held) == 1

    def test_jsonl_persistence_round_trip(self, pool, tmp_path):
        _, plans, costs = pool
        path = tmp_path / "feedback.jsonl"
        log = FeedbackLog(capacity=64, path=path)
        for plan, cost in zip(plans[:10], costs[:10]):
            log.record(plan, cost * 1.05, cost, env_features=ENV, day=1, model_version=3)
        reloaded = FeedbackLog.load(path, capacity=64)
        assert len(reloaded) == 10
        for orig, rest in zip(log.records(), reloaded.records()):
            assert rest.fingerprint == orig.fingerprint
            assert rest.predicted_cost == pytest.approx(orig.predicted_cost)
            assert rest.observed_cost == pytest.approx(orig.observed_cost)
            assert rest.env_features == pytest.approx(orig.env_features)
            assert rest.plan is None  # plans are in-memory extras
        # A resumed log keeps appending to the same file.
        reloaded.record(plans[10], costs[10], costs[10])
        assert len(FeedbackLog.load(path)) == 11

    def test_hottest_plans_ranked_by_frequency(self, pool):
        _, plans, costs = pool
        log = FeedbackLog()
        for _ in range(3):
            log.record(plans[1], costs[1], costs[1], env_features=(0.9, 0.1, 0.2, 0.3))
        for _ in range(2):
            log.record(plans[0], costs[0], costs[0], env_features=ENV)
        log.record(plans[2], costs[2], costs[2])  # no env recorded
        hottest = log.hottest_plans(2, default_env=ENV)
        assert [p for p, _ in hottest] == [plans[1], plans[0]]
        assert hottest[0][1] == (0.9, 0.1, 0.2, 0.3)
        # default_env fills records that carried no environment.
        all_three = log.hottest_plans(5, default_env=ENV)
        assert (plans[2], ENV) in all_three
        assert log.hottest_plans(0) == []

    def test_hottest_plans_skips_planless_records(self):
        log = FeedbackLog()
        log.append(_synthetic_record(1, 10.0, 10.0, ENV))  # reloaded: plan=None
        assert log.hottest_plans(4) == []


# -- drift monitor ----------------------------------------------------------------


def _synthetic_record(i, predicted, observed, env):
    return FeedbackRecord(
        fingerprint=f"{i:016x}",
        predicted_cost=predicted,
        observed_cost=observed,
        env_features=env,
        day=0,
        model_version=1,
        n_nodes=5,
    )


class TestDriftMonitor:
    CONFIG = DriftConfig(window=16, min_samples=16, max_q_error=2.0,
                         degradation_ratio=1.4, env_shift_threshold=0.1)

    def test_quiet_below_min_samples(self):
        log = FeedbackLog()
        for i in range(8):
            log.append(_synthetic_record(i, 100.0, 400.0, ENV))
        report = DriftMonitor(self.CONFIG).assess(log)
        assert not report.retrain
        assert report.n_samples == 8

    def test_quiet_on_accurate_predictions(self):
        log = FeedbackLog()
        for i in range(48):
            log.append(_synthetic_record(i, 100.0, 105.0, ENV))
        report = DriftMonitor(self.CONFIG).assess(log)
        assert not report.retrain
        assert report.recent_q_error == pytest.approx(1.05)

    def test_prediction_degradation_raises_signal(self):
        log = FeedbackLog()
        for i in range(32):
            log.append(_synthetic_record(i, 100.0, 105.0, ENV))
        for i in range(16):  # recent window: errors blow up
            log.append(_synthetic_record(100 + i, 100.0, 400.0, ENV))
        report = DriftMonitor(self.CONFIG).assess(log)
        assert report.retrain
        assert "q-error-absolute" in report.reasons
        assert "q-error-degradation" in report.reasons

    def test_environment_shift_raises_signal(self):
        log = FeedbackLog()
        calm = (0.8, 0.02, 0.3, 0.4)
        loaded = (0.2, 0.15, 0.8, 0.8)
        for i in range(32):
            log.append(_synthetic_record(i, 100.0, 102.0, calm))
        for i in range(16):
            log.append(_synthetic_record(100 + i, 100.0, 102.0, loaded))
        report = DriftMonitor(self.CONFIG).assess(log)
        assert report.retrain
        assert report.reasons == ["environment-shift"]
        assert report.env_shift > 0.1


# -- canary + lifecycle end to end ------------------------------------------------


def _fresh_lifecycle(pool, tmp_path, name="lc"):
    predictor, plans, costs = pool
    lifecycle = ModelLifecycle(
        tmp_path / name,
        drift=DriftConfig(min_samples=16, window=16),
        canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4),
    )
    lifecycle.bootstrap(
        predictor,
        environment_features=ENV,
        training_fingerprint=training_data_fingerprint(plans, costs),
    )
    for plan, cost in zip(plans, costs):
        lifecycle.observe(plan, cost, env_features=ENV)
    return lifecycle


class TestCanaryGate:
    def test_insufficient_data_refuses_to_decide(self, pool, tmp_path):
        predictor, plans, costs = pool
        controller = CanaryController(CanaryConfig(min_holdout=8))
        log = FeedbackLog()
        log.record(plans[0], costs[0], costs[0], env_features=ENV)
        report = controller.evaluate(predictor, predictor, log)
        assert report.decision == "insufficient-data"
        assert not report.passed

    def test_no_incumbent_is_bootstrap_decision(self, pool):
        predictor, _, _ = pool
        report = CanaryController().evaluate(predictor, None, FeedbackLog())
        assert report.decision == "bootstrap"
        assert report.passed

    def test_identical_candidate_promotes(self, pool, tmp_path):
        predictor, plans, costs = pool
        lifecycle = _fresh_lifecycle(pool, tmp_path)
        report = lifecycle.canary.evaluate(predictor, predictor, lifecycle.feedback)
        assert report.decision == "promote"
        assert report.candidate_error == pytest.approx(report.incumbent_error)


class TestLifecycleEndToEnd:
    def test_regressed_candidate_rejected_incumbent_unchanged(self, pool, tmp_path):
        predictor, plans, costs = pool
        lifecycle = _fresh_lifecycle(pool, tmp_path)
        regressed = _perturbed(predictor, tmp_path, sigma=2.0)
        before = lifecycle.service.predict(plans[:10], env_features=ENV).copy()
        version_before = lifecycle.current_version.version

        report, entry = lifecycle.submit_candidate(regressed)
        assert report.decision == "reject"
        assert entry is None
        assert report.candidate_error > report.incumbent_error
        # Incumbent keeps serving, bit for bit.
        after = lifecycle.service.predict(plans[:10], env_features=ENV)
        assert np.array_equal(before, after)
        assert lifecycle.current_version.version == version_before
        assert lifecycle.predictor is predictor
        # The rejected candidate is still registered (unpromoted) for audit.
        audit = [e for e in lifecycle.registry.versions() if not e.promoted]
        assert len(audit) == 1
        assert audit[0].metrics["canary_decision"] == "reject"

    def test_better_candidate_promoted_with_cache_invalidation(self, pool, tmp_path):
        predictor, plans, costs = pool
        # Incumbent is a degraded model; the well-trained predictor is the
        # genuinely better candidate.
        weak = _perturbed(predictor, tmp_path, sigma=0.8, seed=7)
        lifecycle = ModelLifecycle(
            tmp_path / "promo",
            canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4),
        )
        lifecycle.bootstrap(weak, environment_features=ENV)
        for plan, cost in zip(plans, costs):
            lifecycle.observe(plan, cost, env_features=ENV)
        old_weights_version = lifecycle.predictor.weights_version
        assert len(lifecycle.service.prediction_cache) > 0  # observe() filled it

        report, entry = lifecycle.submit_candidate(predictor, environment_features=ENV)
        assert report.decision == "promote"
        assert entry is not None and entry.promoted
        assert lifecycle.current_version.version == entry.version
        # weights_version bumps past the incumbent's...
        assert lifecycle.predictor is predictor
        assert predictor.weights_version > old_weights_version
        assert entry.weights_version == predictor.weights_version
        # ...and both serving-cache tiers were invalidated by the hot swap,
        # then re-warmed with the feedback log's hottest plans scored under
        # the *new* model (so nothing stale from the incumbent survives and
        # the cache holds at most the warming set).
        warmed = lifecycle.service.cache_counters()["warmed_plans"]
        assert 0 < warmed <= WARM_TOP_K
        assert 0 < len(lifecycle.service.prediction_cache) <= warmed
        assert 0 < len(lifecycle.service.encoding_cache) <= warmed

        # Post-swap predictions match a fresh service built from the new
        # checkpoint exactly.
        swapped = lifecycle.service.predict(plans[:10], env_features=ENV)
        reloaded, env = lifecycle.registry.load(entry.version)
        fresh = CostInferenceService(reloaded).predict(plans[:10], env_features=env)
        assert np.array_equal(swapped, fresh)

    def test_promote_serves_hottest_plans_warm(self, pool, tmp_path):
        """The first post-promote request for the feedback log's hottest
        plan must be a prediction-cache hit (no cold burst after a swap)."""
        predictor, plans, costs = pool
        weak = _perturbed(predictor, tmp_path, sigma=0.8, seed=7)
        lifecycle = ModelLifecycle(
            tmp_path / "warm",
            canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4),
        )
        lifecycle.bootstrap(weak, environment_features=ENV)
        hot = plans[0]
        for _ in range(3):  # make one plan clearly hottest
            lifecycle.observe(hot, costs[0], env_features=ENV)
        for plan, cost in zip(plans[1:20], costs[1:20]):
            lifecycle.observe(plan, cost, env_features=ENV)

        report, entry = lifecycle.submit_candidate(predictor, environment_features=ENV)
        assert report.decision == "promote"
        service = lifecycle.service
        service.reset_stats()
        got = service.predict([hot], env_features=ENV)
        counters = service.cache_counters()
        assert counters["prediction_cache_hits"] == 1
        assert counters["prediction_cache_misses"] == 0
        # ...and the warm value is the new model's prediction, not a stale one.
        fresh = CostInferenceService(predictor).predict([hot], env_features=ENV)
        np.testing.assert_array_equal(got, fresh)

    def test_rollback_restores_previous_version_exactly(self, pool, tmp_path):
        predictor, plans, costs = pool
        weak = _perturbed(predictor, tmp_path, sigma=0.8, seed=7)
        lifecycle = ModelLifecycle(
            tmp_path / "rb", canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4)
        )
        lifecycle.bootstrap(weak, environment_features=ENV)
        for plan, cost in zip(plans, costs):
            lifecycle.observe(plan, cost, env_features=ENV)
        incumbent_predictions = lifecycle.service.predict(
            plans[:10], env_features=ENV
        ).copy()
        report, entry = lifecycle.submit_candidate(predictor, environment_features=ENV)
        assert report.passed
        assert not np.array_equal(
            incumbent_predictions, lifecycle.service.predict(plans[:10], env_features=ENV)
        )
        restored = lifecycle.rollback()
        assert restored.version < entry.version
        assert lifecycle.current_version.version == restored.version
        rolled_back = lifecycle.service.predict(plans[:10], env_features=ENV)
        assert np.array_equal(incumbent_predictions, rolled_back)

    def test_lifecycle_resumes_from_persisted_registry(self, pool, tmp_path):
        predictor, plans, costs = pool
        lifecycle = _fresh_lifecycle(pool, tmp_path, name="resume")
        served = lifecycle.service.predict(plans[:6], env_features=ENV).copy()
        resumed = ModelLifecycle(tmp_path / "resume")
        assert resumed.has_model
        assert resumed.current_version.version == lifecycle.current_version.version
        assert resumed.environment_features == pytest.approx(ENV)
        assert np.array_equal(
            served, resumed.service.predict(plans[:6], env_features=ENV)
        )

    def test_no_model_raises_until_bootstrap(self, tmp_path):
        lifecycle = ModelLifecycle(tmp_path / "cold")
        assert not lifecycle.has_model
        with pytest.raises(RuntimeError):
            _ = lifecycle.service
        with pytest.raises(RuntimeError):
            _ = lifecycle.predictor

    def test_observe_defaults_to_the_representative_environment(self, pool, tmp_path):
        from repro.warehouse.workload import ProjectProfile, generate_project

        predictor, _, _ = pool
        workload = generate_project(
            ProjectProfile(name="hookproj", seed=11, n_tables=8, n_templates=4)
        )
        lifecycle = ModelLifecycle(tmp_path / "hook")
        rng = np.random.default_rng(5)
        plan = workload.optimizer.optimize(workload.sample_query(0))
        lifecycle.bootstrap(predictor, environment_features=ENV)
        record = workload.executor.execute(plan, rng=rng, day=2)
        lifecycle.observe(record.plan, record.cpu_cost, day=record.day)
        assert len(lifecycle.feedback) == 1
        rec = lifecycle.feedback.records()[0]
        assert rec.observed_cost == pytest.approx(record.cpu_cost)
        assert rec.fingerprint == plan_digest(plan)
        assert rec.day == 2
        assert rec.model_version == 1
        assert rec.env_features == pytest.approx(ENV)

    def test_drift_signal_over_observed_outcomes(self, pool, tmp_path):
        predictor, plans, costs = pool
        lifecycle = ModelLifecycle(
            tmp_path / "drift",
            drift=DriftConfig(window=16, min_samples=16, max_q_error=2.5),
        )
        lifecycle.bootstrap(predictor, environment_features=ENV)
        # Healthy phase: observe costs equal to the model's own predictions.
        for plan in plans[:32]:
            predicted = float(lifecycle.service.predict([plan], env_features=ENV)[0])
            lifecycle.observe(plan, predicted, env_features=ENV)
        assert not lifecycle.check_drift().retrain
        # Workload shift: observed costs now 5x the model's predictions.
        for plan in plans[32:48]:
            predicted = float(lifecycle.service.predict([plan], env_features=ENV)[0])
            lifecycle.observe(plan, predicted * 5.0, env_features=ENV)
        report = lifecycle.check_drift()
        assert report.retrain
        assert "q-error-absolute" in report.reasons
