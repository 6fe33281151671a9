"""Tests for project selection: Filter, Ranker, and ranking metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selector.filter import FilterConfig, ProjectFilter
from repro.core.selector.metrics import (
    expected_random_ndcg,
    expected_random_recall,
    ndcg_at_k,
    recall_at_k,
)
from repro.core.selector.ranker import ProjectRanker, RankerPlanVectorizer


class TestFilterRules:
    def test_n_query_metric(self, project_with_history):
        records = project_with_history.repository.records
        n_days = len({r.day for r in records})
        expected = len(records) / n_days
        assert ProjectFilter.n_query(records) == pytest.approx(expected)

    def test_query_inc_ratio_stable_volume(self, project_with_history):
        records = project_with_history.repository.records
        ratio = ProjectFilter.query_inc_ratio(records)
        assert 0.3 < ratio < 3.0

    def test_stable_table_ratio_bounds(self, project_with_history):
        filt = ProjectFilter(FilterConfig(stable_lifespan_days=3))
        ratio = filt.stable_table_ratio(
            project_with_history.repository.records,
            project_with_history.catalog,
            horizon_day=40,
        )
        assert 0.0 <= ratio <= 1.0

    def test_passes_with_permissive_thresholds(self, project_with_history):
        filt = ProjectFilter(
            FilterConfig(
                min_daily_queries=1.0,
                min_growth_ratio=0.0,
                stable_lifespan_days=1,
                min_stable_table_ratio=0.0,
            )
        )
        decision = filt.evaluate(
            project_with_history.repository.records, project_with_history.catalog
        )
        assert decision.passed
        assert decision.failed_rules == []

    def test_fails_r1_with_high_volume_requirement(self, project_with_history):
        filt = ProjectFilter(FilterConfig(min_daily_queries=1e9))
        decision = filt.evaluate(
            project_with_history.repository.records, project_with_history.catalog
        )
        assert not decision.passed
        assert "R1" in decision.failed_rules

    def test_fails_r3_with_strict_stability(self, project_with_history):
        filt = ProjectFilter(
            FilterConfig(
                min_daily_queries=1.0,
                min_growth_ratio=0.0,
                stable_lifespan_days=10_000,
                min_stable_table_ratio=0.99,
            )
        )
        decision = filt.evaluate(
            project_with_history.repository.records, project_with_history.catalog
        )
        assert "R3" in decision.failed_rules

    def test_empty_records_fail_everything(self, project_with_history):
        decision = ProjectFilter().evaluate([], project_with_history.catalog)
        assert not decision.passed
        assert decision.failed_rules == ["R1", "R2", "R3"]

    def test_scaled_config(self):
        config = FilterConfig.scaled(0.01)
        assert config.min_daily_queries == pytest.approx(20.0)


class TestRankingMetrics:
    RELEVANCE = {"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.2, "e": 0.1}

    def test_perfect_ranking_recall(self):
        ranking = ["a", "b", "c", "d", "e"]
        assert recall_at_k(ranking, self.RELEVANCE, k=2, n=2) == 1.0

    def test_worst_ranking_recall(self):
        ranking = ["e", "d", "c", "b", "a"]
        assert recall_at_k(ranking, self.RELEVANCE, k=2, n=2) == 0.0

    def test_partial_recall(self):
        ranking = ["a", "e", "b", "c", "d"]
        assert recall_at_k(ranking, self.RELEVANCE, k=2, n=2) == 0.5

    def test_perfect_ndcg_is_one(self):
        ranking = ["a", "b", "c", "d", "e"]
        assert ndcg_at_k(ranking, self.RELEVANCE, k=3) == pytest.approx(1.0)

    def test_ndcg_penalizes_inversions(self):
        good = ndcg_at_k(["a", "b", "c", "d", "e"], self.RELEVANCE, k=3)
        bad = ndcg_at_k(["e", "d", "c", "b", "a"], self.RELEVANCE, k=3)
        assert bad < good

    def test_random_recall_expectation(self):
        assert expected_random_recall(k=3, n_projects=15) == pytest.approx(0.2)

    def test_random_ndcg_below_one(self):
        assert 0.0 < expected_random_ndcg(self.RELEVANCE, k=3) < 1.0

    def test_random_recall_monte_carlo(self):
        rng = np.random.default_rng(0)
        names = list(self.RELEVANCE)
        recalls = []
        for _ in range(3000):
            perm = list(rng.permutation(names))
            recalls.append(recall_at_k(perm, self.RELEVANCE, k=2, n=2))
        assert np.mean(recalls) == pytest.approx(expected_random_recall(2, 5), abs=0.02)

    def test_random_ndcg_monte_carlo(self):
        rng = np.random.default_rng(1)
        names = list(self.RELEVANCE)
        values = []
        for _ in range(3000):
            perm = list(rng.permutation(names))
            values.append(ndcg_at_k(perm, self.RELEVANCE, k=3))
        assert np.mean(values) == pytest.approx(
            expected_random_ndcg(self.RELEVANCE, k=3), abs=0.02
        )

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], {"a": 1.0}, k=2, n=1)
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1.0}, k=0)

    def test_missing_relevance_rejected(self):
        with pytest.raises(KeyError):
            ndcg_at_k(["z"], {"a": 1.0}, k=1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_recall_bounds_property(self, k):
        ranking = list(self.RELEVANCE)
        assert 0.0 <= recall_at_k(ranking, self.RELEVANCE, k=k, n=3) <= 1.0


class TestRankerVectorizer:
    def test_dimension(self):
        vec = RankerPlanVectorizer()
        assert vec.dim == 1 + 13 * 13 + 3 + 1

    def test_vectorize_shape_and_content(self, small_project):
        vec = RankerPlanVectorizer()
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        features = vec.vectorize(plan, small_project.catalog, cost=1000.0)
        assert features.shape == (vec.dim,)
        assert features[0] == plan.n_nodes
        assert features[-1] == pytest.approx(np.log1p(1000.0))

    def test_no_project_identifiers(self, small_project):
        """Ranker features must transfer across projects: same-shaped plans
        from different tables (different names/hashes) encode identically
        apart from table sizes and cost."""
        vec = RankerPlanVectorizer()
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        a = vec.vectorize(plan, small_project.catalog, cost=10.0)
        b = vec.vectorize(plan, small_project.catalog, cost=10.0)
        assert np.array_equal(a, b)


class TestProjectRanker:
    def _training_data(self, project, n=40):
        plans, costs, spaces = [], [], []
        rng = np.random.default_rng(0)
        for _ in range(n):
            query = project.sample_query(0)
            plan = project.optimizer.optimize(query)
            cost = 100.0 * plan.n_nodes
            # Synthetic but learnable target: more joins => more headroom.
            n_joins = sum(1 for node in plan.iter_nodes() if "Join" in node.op_type)
            spaces.append(0.05 * n_joins + 0.01 * rng.random())
            plans.append(plan)
            costs.append(cost)
        return plans, costs, spaces

    def test_fit_and_estimate(self, small_project):
        plans, costs, spaces = self._training_data(small_project)
        ranker = ProjectRanker(n_estimators=40, max_depth=3)
        ranker.fit(plans, [small_project.catalog] * len(plans), costs, spaces)
        estimates = ranker.estimate_many(
            plans[:10], [small_project.catalog] * 10, costs[:10]
        )
        assert estimates.shape == (10,)
        # Learnable signal: correlation with ground truth is strongly positive.
        assert np.corrcoef(estimates, spaces[:10])[0, 1] > 0.5

    def test_score_and_rank_projects(self, small_project):
        plans, costs, spaces = self._training_data(small_project)
        ranker = ProjectRanker(n_estimators=30, max_depth=3)
        ranker.fit(plans, [small_project.catalog] * len(plans), costs, spaces)
        score = ranker.score_project(plans[:5], small_project.catalog, costs[:5])
        assert np.isfinite(score)
        ranking = ranker.rank_projects({"p1": 0.1, "p2": 0.9, "p3": 0.5})
        assert ranking == ["p2", "p3", "p1"]

    def test_estimate_before_fit_rejected(self, small_project):
        ranker = ProjectRanker()
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        with pytest.raises(RuntimeError):
            ranker.estimate_many([plan], [small_project.catalog], [1.0])

    def test_mismatched_inputs_rejected(self, small_project):
        with pytest.raises(ValueError):
            ProjectRanker().fit([], [small_project.catalog], [1.0], [0.1])
