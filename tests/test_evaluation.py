"""Tests for the evaluation harness and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.config import ExperimentScale, current_scale
from repro.evaluation.harness import (
    build_evaluation_project,
    evaluate_methods,
)
from repro.evaluation.projects import evaluation_profiles, ranker_pool_profiles
from repro.evaluation.reporting import format_number, format_series, format_table
from repro.warehouse.workload import ProjectProfile

TINY_SCALE = ExperimentScale(
    name="tiny",
    history_days=4,
    train_days=3,
    max_training_queries=60,
    n_test_queries=6,
    predictor_epochs=2,
    flighting_runs=2,
    candidate_alignment_queries=5,
    deviance_samples=4,
    ranker_pool_size=4,
    fleet_size=6,
)


@pytest.fixture(scope="module")
def eval_project():
    profile = ProjectProfile(
        name="evaltest",
        seed=9,
        n_tables=10,
        n_templates=8,
        queries_per_day=25.0,
        stats_availability=0.2,
        row_scale=1e5,
        n_machines=30,
    )
    return build_evaluation_project(profile, TINY_SCALE, max_queries_per_day=25)


class _RandomModel:
    """A selection rule with no information: sanity floor for the harness."""

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def predict(self, plans, *, env_features=None):
        return self.rng.random(len(plans))


class TestBuildEvaluationProject:
    def test_split_respects_days(self, eval_project):
        train_days = {r.day for r in eval_project.train_records}
        assert max(train_days) < TINY_SCALE.train_days
        assert len(eval_project.test_queries) <= TINY_SCALE.n_test_queries
        assert all(
            q.submit_day >= TINY_SCALE.train_days for q in eval_project.test_queries
        )

    def test_train_records_deduplicated_defaults(self, eval_project):
        signatures = [r.plan.query.signature() for r in eval_project.train_records]
        assert len(signatures) == len(set(signatures))
        assert all(r.is_default for r in eval_project.train_records)

    def test_table1_row_fields(self, eval_project):
        row = eval_project.table1_row()
        assert row["project"] == "evaltest"
        assert row["n_tables"] == 10
        assert row["n_training_queries"] == len(eval_project.train_records)
        assert row["avg_cpu_cost"] > 0


class TestEvaluateMethods:
    def test_native_oracle_and_method_results(self, eval_project):
        results = evaluate_methods(eval_project, {"random": _RandomModel()}, top_k=3)
        assert set(results) == {"native", "oracle", "random"}
        assert results["oracle"].average_cost <= results["native"].average_cost + 1e-9
        assert results["oracle"].average_cost <= results["random"].average_cost + 1e-9

    def test_per_query_costs_lengths(self, eval_project):
        results = evaluate_methods(eval_project, {"random": _RandomModel()}, top_k=3)
        n = len(eval_project.test_queries)
        for result in results.values():
            assert len(result.per_query_costs) == n

    def test_improvement_over(self, eval_project):
        results = evaluate_methods(eval_project, {}, top_k=3)
        improvement = results["oracle"].improvement_over(results["native"])
        assert 0.0 <= improvement < 1.0

    def test_chose_default_fraction_bounds(self, eval_project):
        results = evaluate_methods(eval_project, {"random": _RandomModel()}, top_k=3)
        assert 0.0 <= results["random"].chose_default_fraction <= 1.0


class TestProjectProfilesCatalog:
    def test_five_evaluation_profiles(self):
        profiles = evaluation_profiles()
        assert [p.name for p in profiles] == [f"project{i}" for i in range(1, 6)]
        # The paper's contrasts: P2/P5 stats-poor, P3/P4 stats-rich,
        # P4 volume-starved.
        by_name = {p.name: p for p in profiles}
        assert by_name["project2"].stats_availability < by_name["project3"].stats_availability
        assert by_name["project4"].queries_per_day < by_name["project1"].queries_per_day

    def test_ranker_pool(self):
        pool = ranker_pool_profiles(6)
        assert len(pool) == 6

    def test_current_scale_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()


class TestReporting:
    def test_format_number(self):
        assert format_number(0.0) == "0"
        assert format_number(1234567.0) == "1.23e+06"
        assert format_number(0.123456) == "0.123"
        assert format_number("abc") == "abc"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("x", [1, 2], {"y": [10, 20], "z": [30, 40]})
        assert "x" in text and "y" in text and "z" in text
        assert "40" in text
