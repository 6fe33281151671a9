"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation has one bench module; they
share expensive artifacts (simulated projects, measured candidate costs,
trained models) through the session-scoped fixtures here.  Experiment sizes
follow ``REPRO_SCALE`` (smoke / small / paper) — see
:mod:`repro.evaluation.config`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.loam import LOAM, LOAMConfig
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.evaluation.config import current_scale
from repro.evaluation.harness import (
    EvaluationProject,
    build_evaluation_project,
    measure_candidates,
)
from repro.evaluation.parallel import EvalTask, run_tasks
from repro.evaluation.projects import evaluation_profiles
from repro.evaluation.tasks import train_loam_task

PROJECT_NAMES = ("project1", "project2", "project3", "project4", "project5")


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def eval_projects(scale) -> dict[str, EvaluationProject]:
    """The five Table-1 evaluation projects with simulated history."""
    projects = {}
    for profile in evaluation_profiles():
        projects[profile.name] = build_evaluation_project(profile, scale)
    return projects


@pytest.fixture(scope="session")
def measured_candidates(eval_projects, scale):
    """Per project: candidates of every test query, each executed
    ``flighting_runs`` times — the shared measurement pool (Section 7.1)."""
    return {
        name: measure_candidates(project, top_k=5, flighting_runs=scale.flighting_runs)
        for name, project in eval_projects.items()
    }


def loam_config(scale) -> LOAMConfig:
    return LOAMConfig(
        max_training_queries=scale.max_training_queries,
        candidate_alignment_queries=scale.candidate_alignment_queries,
        top_k_candidates=5,
        flighting_runs=scale.flighting_runs,
        predictor=PredictorConfig(epochs=scale.predictor_epochs),
    )


def train_loam(
    project: EvaluationProject,
    scale,
    *,
    max_training_queries: int | None = None,
    **predictor_overrides,
) -> LOAM:
    from dataclasses import replace

    base = loam_config(scale)
    config = LOAMConfig(
        max_training_queries=max_training_queries or base.max_training_queries,
        candidate_alignment_queries=base.candidate_alignment_queries,
        top_k_candidates=base.top_k_candidates,
        flighting_runs=base.flighting_runs,
        predictor=replace(base.predictor, **predictor_overrides)
        if predictor_overrides
        else base.predictor,
    )
    loam = LOAM(project.workload, config)
    loam.train(first_day=0, last_day=scale.train_days - 1)
    return loam


@pytest.fixture(scope="session")
def trained_loams(eval_projects, scale) -> dict[str, LOAM]:
    """One trained LOAM per evaluation project (reused by Figures 6-11).

    Training runs through the process-parallel harness — one task per
    project, seeds pinned to 0 to match what serial ``train_loam`` trains."""
    tasks = [
        EvalTask(
            key=name,
            fn=train_loam_task,
            args=(project, loam_config(scale)),
            kwargs={"first_day": 0, "last_day": scale.train_days - 1},
            seed=0,
        )
        for name, project in eval_projects.items()
    ]
    return run_tasks(tasks)


@pytest.fixture(scope="session")
def trained_baselines(eval_projects, scale):
    """Transformer / GCN / XGBoost cost models per project (Figure 6, 9)."""
    from repro.core.baselines import (
        GCNCostPredictor,
        TransformerCostPredictor,
        XGBoostCostPredictor,
    )

    out: dict[str, dict[str, object]] = {}
    for name, project in eval_projects.items():
        plans = [r.plan for r in project.train_records]
        costs = [r.cpu_cost for r in project.train_records]
        models: dict[str, object] = {}
        for factory in (TransformerCostPredictor, GCNCostPredictor, XGBoostCostPredictor):
            model = factory(seed=0)
            model.fit(plans, costs, epochs=max(3, scale.predictor_epochs // 3))
            models[model.name] = model
        out[name] = models
    return out


@pytest.fixture(scope="session")
def ranker_pool(scale):
    """Projects with measured per-query improvement spaces D(M_d), for the
    Ranker studies (Figures 12 and 16)."""
    from repro.core.deviance import DevianceEstimator
    from repro.core.explorer import PlanExplorer
    from repro.evaluation.projects import ranker_pool_profiles
    from repro.warehouse.workload import generate_project

    pool = []
    estimator = DevianceEstimator(n_samples=max(4, scale.deviance_samples // 2), n_grid=768)
    for profile in ranker_pool_profiles(scale.ranker_pool_size):
        workload = generate_project(profile)
        workload.simulate_history(3, max_queries_per_day=15)
        explorer = PlanExplorer(workload.optimizer)
        flighting = workload.flighting(seed_key="ranker-pool")
        measurements = []
        for _ in range(6):
            query = workload.sample_query(3)
            plans = explorer.candidates(query, top_k=4)
            if len(plans) < 2:
                continue
            samples = [flighting.sample_costs(p, estimator.n_samples) for p in plans]
            report = estimator.report_from_samples(samples)
            d_index = next(i for i, p in enumerate(plans) if p.is_default)
            measurements.append(
                (
                    plans[d_index],
                    float(samples[d_index].mean()),
                    report.improvement_space(d_index),
                )
            )
        if measurements:
            mean_space = float(np.mean([m[2] for m in measurements]))
            pool.append((workload, measurements, mean_space))
    return pool


def print_banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
