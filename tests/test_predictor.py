"""Tests for the adaptive cost predictor and baseline cost models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (
    GCNCostPredictor,
    TransformerCostPredictor,
    XGBoostCostPredictor,
)
from repro.core.decision import choose, default_index
from repro.core.encoding import PlanEncoder
from repro.core.explorer import PlanExplorer
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig


@pytest.fixture(scope="module")
def training_data(project_with_history):
    records = project_with_history.repository.deduplicated()[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    explorer = PlanExplorer(project_with_history.optimizer)
    candidates = []
    for record in records[:10]:
        for plan in explorer.candidates(record.plan.query):
            if not plan.is_default:
                candidates.append(plan)
    return plans, costs, candidates


TINY = PredictorConfig(hidden_dims=(24, 16), embedding_dim=12, epochs=4, batch_size=32)


class TestAdaptiveCostPredictor:
    def test_fit_reduces_cost_loss(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        report = predictor.fit(plans, costs, candidates)
        assert report.cost_losses[-1] < report.cost_losses[0]
        assert report.train_seconds > 0
        assert report.n_default_plans == len(plans)

    def test_predictions_positive_and_finite(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        predictor.fit(plans, costs, candidates)
        preds = predictor.predict(plans[:10], env_features=(0.5, 0.05, 0.5, 0.5))
        assert preds.shape == (10,)
        assert np.all(np.isfinite(preds)) and np.all(preds >= 0)

    def test_predictions_correlate_with_cost(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(
            config=PredictorConfig(hidden_dims=(32, 24), embedding_dim=16, epochs=12)
        )
        predictor.fit(plans, costs, candidates)
        preds = predictor.predict(plans)
        corr = np.corrcoef(np.log1p(preds), np.log1p(costs))[0, 1]
        assert corr > 0.5

    def test_choose_returns_member(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        predictor.fit(plans, costs, candidates)
        predictions = predictor.predict(plans[:5])
        chosen = plans[:5][choose(predictions, default_index(plans[:5])).index]
        assert chosen in plans[:5]
        assert np.argmin(predictions) == plans[:5].index(chosen)

    def test_adversarial_training_runs_domain_loss(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        report = predictor.fit(plans, costs, candidates)
        assert any(d > 0 for d in report.domain_losses)

    def test_non_adversarial_skips_domain_loss(self, training_data):
        plans, costs, candidates = training_data
        config = PredictorConfig(
            hidden_dims=(24, 16), embedding_dim=12, epochs=3, adversarial=False
        )
        predictor = AdaptiveCostPredictor(config=config)
        report = predictor.fit(plans, costs, candidates)
        assert all(d == 0 for d in report.domain_losses)

    def test_env_features_change_prediction(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        predictor.fit(plans, costs, candidates)
        idle = predictor.predict(plans[:5], env_features=(1.0, 0.0, 0.0, 0.0))
        busy = predictor.predict(plans[:5], env_features=(0.0, 0.5, 1.0, 1.0))
        assert not np.allclose(idle, busy)

    def test_size_bytes_positive(self):
        predictor = AdaptiveCostPredictor(config=TINY)
        assert predictor.size_bytes() > 0

    def test_mismatched_lengths_rejected(self, training_data):
        plans, costs, _ = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        with pytest.raises(ValueError):
            predictor.fit(plans, costs[:-1])

    def test_empty_training_rejected(self):
        predictor = AdaptiveCostPredictor(config=TINY)
        with pytest.raises(ValueError):
            predictor.fit([], [])

    def test_deterministic_given_seed(self, training_data):
        plans, costs, candidates = training_data
        a = AdaptiveCostPredictor(config=TINY)
        a.fit(plans, costs, candidates)
        b = AdaptiveCostPredictor(config=TINY)
        b.fit(plans, costs, candidates)
        assert np.allclose(a.predict(plans[:5]), b.predict(plans[:5]))


class TestBaselines:
    @pytest.mark.parametrize(
        "factory",
        [TransformerCostPredictor, GCNCostPredictor, XGBoostCostPredictor],
        ids=["transformer", "gcn", "xgboost"],
    )
    def test_fit_predict_roundtrip(self, factory, training_data):
        plans, costs, _ = training_data
        model = factory(PlanEncoder())
        model.fit(plans, costs, epochs=3)
        preds = model.predict(plans[:8], env_features=(0.5, 0.05, 0.5, 0.5))
        assert preds.shape == (8,)
        assert np.all(np.isfinite(preds)) and np.all(preds >= 0)
        assert model.train_seconds > 0
        assert model.size_bytes() > 0

    def test_xgboost_correlates_on_train(self, training_data):
        plans, costs, _ = training_data
        model = XGBoostCostPredictor(PlanEncoder())
        model.fit(plans, costs)
        preds = model.predict(plans)
        assert np.corrcoef(np.log1p(preds), np.log1p(costs))[0, 1] > 0.6

class TestTrainingFastPath:
    """The prebuilt-buffer + fused-op fit() path vs the reference path.

    Both consume the RNG identically and compute the same math; differences
    come only from float32 buffer round-off, so trajectories and predictions
    must agree within rtol 1e-4 (mirrors the gate in
    ``benchmarks/bench_training_throughput.py``)."""

    def test_trajectories_match_reference(self, training_data):
        plans, costs, candidates = training_data
        fast = AdaptiveCostPredictor(config=TINY)
        fast_report = fast.fit(plans, costs, candidates, fast_path=True)
        ref = AdaptiveCostPredictor(config=TINY)
        ref_report = ref.fit(plans, costs, candidates, fast_path=False)

        assert fast_report.fast_path and not ref_report.fast_path
        assert fast_report.n_batches == ref_report.n_batches
        np.testing.assert_allclose(
            fast_report.cost_losses, ref_report.cost_losses, rtol=1e-4
        )
        np.testing.assert_allclose(
            fast_report.domain_losses, ref_report.domain_losses, rtol=1e-4
        )
        np.testing.assert_allclose(
            fast.predict_baseline(plans[:16]),
            ref.predict_baseline(plans[:16]),
            rtol=1e-4,
        )

    def test_report_counts_batches_and_throughput(self, training_data):
        plans, costs, candidates = training_data
        predictor = AdaptiveCostPredictor(config=TINY)
        report = predictor.fit(plans, costs, candidates)
        expected = TINY.epochs * (len(plans) // TINY.batch_size)
        # Chunk remainders of size >= 2 also train, so at least the floor.
        assert report.n_batches >= expected
        assert report.steps_per_second > 0
        assert abs(report.steps_per_second - report.n_batches / report.train_seconds) < 1.0

    def test_fast_path_without_candidates(self, training_data):
        plans, costs, _ = training_data
        fast = AdaptiveCostPredictor(config=TINY)
        fast.fit(plans, costs)
        ref = AdaptiveCostPredictor(config=TINY)
        ref.fit(plans, costs, fast_path=False)
        np.testing.assert_allclose(
            fast.predict_baseline(plans[:16]),
            ref.predict_baseline(plans[:16]),
            rtol=1e-4,
        )
