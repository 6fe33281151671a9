"""Tests for the fleet deployment manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deployment import DeploymentConfig, FleetManager
from repro.core.loam import LOAMConfig
from repro.core.predictor import PredictorConfig
from repro.core.selector import FilterConfig
from repro.warehouse.workload import ProjectProfile, generate_project

FAST_CONFIG = DeploymentConfig(
    top_n=2,
    min_validated_improvement=-10.0,  # permissive gate for the tiny models
    validation_queries=3,
    ranker_queries_per_project=3,
    deviance_samples=4,
    loam=LOAMConfig(
        max_training_queries=40,
        candidate_alignment_queries=6,
        flighting_runs=2,
        predictor=PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=2),
    ),
    filter=FilterConfig(
        min_daily_queries=2.0,
        min_growth_ratio=0.0,
        stable_lifespan_days=1,
        min_stable_table_ratio=0.0,
    ),
)


@pytest.fixture(scope="module")
def fleet():
    workloads = []
    for i in range(4):
        profile = ProjectProfile(
            name=f"fleet{i}",
            seed=200 + i,
            n_tables=8,
            n_templates=6,
            queries_per_day=12.0,
            stats_availability=0.2,
            row_scale=1e5,
            n_machines=25,
        )
        workload = generate_project(profile)
        workload.simulate_history(3, max_queries_per_day=12)
        workloads.append(workload)
    return workloads


@pytest.fixture(scope="module")
def manager(fleet):
    mgr = FleetManager(FAST_CONFIG)
    mgr.seed_ranker(fleet[:2], sample_day=3)
    return mgr


class TestFleetManager:
    def test_round_requires_seeded_ranker(self, fleet):
        with pytest.raises(RuntimeError):
            FleetManager(FAST_CONFIG).run_round(fleet)

    def test_round_produces_outcomes_for_all(self, manager, fleet):
        report = manager.run_round(fleet, sample_day=3)
        assert {o.name for o in report.outcomes} == {w.profile.name for w in fleet}

    def test_top_n_respected(self, manager, fleet):
        report = manager.run_round(fleet, sample_day=3)
        assert sum(o.selected for o in report.outcomes) <= FAST_CONFIG.top_n

    def test_selected_projects_validated(self, manager, fleet):
        report = manager.run_round(fleet, sample_day=3)
        for outcome in report.outcomes:
            if outcome.selected:
                assert outcome.validation is not None
                assert outcome.validation.n_queries == FAST_CONFIG.validation_queries

    def test_permissive_gate_deploys(self, manager, fleet):
        report = manager.run_round(fleet, sample_day=3)
        assert report.deployed_projects  # gate at -10: everything validated deploys
        for name in report.deployed_projects:
            assert name in manager.deployed
            assert manager.deployed[name].trained

    def test_strict_gate_blocks(self, fleet):
        strict = FleetManager(
            DeploymentConfig(
                top_n=1,
                min_validated_improvement=10.0,  # impossible gate
                validation_queries=2,
                ranker_queries_per_project=2,
                deviance_samples=4,
                loam=FAST_CONFIG.loam,
                filter=FAST_CONFIG.filter,
            )
        )
        strict.seed_ranker(fleet[:1], sample_day=3)
        report = strict.run_round(fleet, sample_day=3)
        assert report.deployed_projects == []
        rejected = [o for o in report.outcomes if o.selected]
        assert all("rejected" in o.status for o in rejected)

    def test_feedback_grows_ranker_pool(self, fleet):
        mgr = FleetManager(FAST_CONFIG)
        seeded = mgr.seed_ranker(fleet[:2], sample_day=3)
        mgr.run_round(fleet, sample_day=3)
        assert len(mgr._ranker_pool) > seeded

    def test_filter_outcomes_reported(self, fleet):
        picky = FleetManager(
            DeploymentConfig(
                top_n=1,
                validation_queries=2,
                ranker_queries_per_project=2,
                deviance_samples=4,
                loam=FAST_CONFIG.loam,
                filter=FilterConfig(min_daily_queries=1e9),
            )
        )
        picky.seed_ranker(fleet[:1], sample_day=3)
        report = picky.run_round(fleet, sample_day=3)
        assert report.pass_rate == 0.0
        assert all(o.filtered_out for o in report.outcomes)
        first = next(o for o in report.outcomes if o.name == fleet[0].profile.name)
        assert "R1" in first.failed_rules
