"""Evaluation protocols (Section 7.1).

The paper's measurement procedure, reproduced:

* per project, collect deduplicated queries over consecutive days; the first
  chunk trains, the rest tests (25/5 in the paper);
* cap training queries (10 000 in the paper);
* at evaluation, the plan explorer produces candidates per test query, the
  top-5 by the native optimizer's rough estimate are retained (always
  including the default plan), and every retained candidate is executed
  several times in flighting — once per candidate, shared across all
  compared methods, so method differences reflect *selection* quality only;
* learned optimizers are scored by the measured cost of their selections;
  the native optimizer by the default plan's cost; the oracle by the best
  measured candidate (the dashed best-achievable line in Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.decision import choose, default_index
from repro.core.explorer import PlanExplorer
from repro.evaluation.config import ExperimentScale
from repro.warehouse.executor import ExecutionRecord
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import Query
from repro.warehouse.workload import ProjectProfile, ProjectWorkload, generate_project

__all__ = [
    "CostModel",
    "EvaluationProject",
    "MethodResult",
    "build_evaluation_project",
    "evaluate_methods",
    "measure_candidates",
    "QueryCandidates",
]


class CostModel(Protocol):
    """What evaluate_methods needs from a trained predictor."""

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray: ...


@dataclass
class EvaluationProject:
    """A project with simulated history, split into train and test."""

    workload: ProjectWorkload
    train_records: list[ExecutionRecord]
    test_queries: list[Query]
    scale: ExperimentScale

    @property
    def name(self) -> str:
        return self.workload.profile.name

    def table1_row(self) -> dict[str, float | int | str]:
        """The statistics reported per project in Table 1."""
        catalog = self.workload.catalog
        costs = [r.cpu_cost for r in self.train_records]
        return {
            "project": self.name,
            "n_tables": catalog.n_tables,
            "n_columns": catalog.n_columns,
            "n_training_queries": len(self.train_records),
            "n_test_queries": len(self.test_queries),
            "avg_cpu_cost": float(np.mean(costs)) if costs else 0.0,
        }


def build_evaluation_project(
    profile: ProjectProfile,
    scale: ExperimentScale,
    *,
    max_queries_per_day: int | None = None,
) -> EvaluationProject:
    """Generate, simulate, and split one evaluation project."""
    workload = generate_project(profile, horizon_days=scale.history_days + 5)
    if max_queries_per_day is None:
        # Keep simulation bounded: history only needs to exceed the caps.
        per_day = int(
            np.ceil(1.3 * scale.max_training_queries / max(1, scale.train_days))
        )
        max_queries_per_day = max(20, per_day)
    workload.simulate_history(scale.history_days, max_queries_per_day=max_queries_per_day)

    repo = workload.repository
    train_records = repo.deduplicated(repo.default_plan_records(0, scale.train_days - 1))
    train_records = train_records[: scale.max_training_queries]
    test_records = repo.deduplicated(
        repo.default_plan_records(scale.train_days, scale.history_days - 1)
    )
    test_queries = [r.plan.query for r in test_records[: scale.n_test_queries]]
    return EvaluationProject(
        workload=workload,
        train_records=train_records,
        test_queries=test_queries,
        scale=scale,
    )


@dataclass
class MethodResult:
    """End-to-end evaluation of one method on one project."""

    name: str
    average_cost: float
    per_query_costs: list[float]
    chose_default_fraction: float
    average_inference_seconds: float = 0.0

    def improvement_over(self, other: "MethodResult") -> float:
        if other.average_cost <= 0:
            return 0.0
        return 1.0 - self.average_cost / other.average_cost


@dataclass
class QueryCandidates:
    query: Query
    plans: list[PhysicalPlan]
    measured_costs: np.ndarray
    default_index: int

    @property
    def oracle_index(self) -> int:
        return int(np.argmin(self.measured_costs))


def measure_candidates(
    project: EvaluationProject,
    *,
    top_k: int,
    flighting_runs: int,
    queries: list[Query] | None = None,
) -> list[QueryCandidates]:
    explorer = PlanExplorer(project.workload.optimizer)
    flighting = project.workload.flighting(seed_key="evaluation")
    out = []
    for query in queries if queries is not None else project.test_queries:
        plans = explorer.candidates(query, top_k=top_k)
        costs = np.array(
            [flighting.measure_cost(plan, n_runs=flighting_runs) for plan in plans]
        )
        out.append(QueryCandidates(query, plans, costs, default_index(plans)))
    return out


def evaluate_methods(
    project: EvaluationProject,
    methods: dict[str, CostModel],
    *,
    env_features: dict[str, tuple[float, float, float, float] | None] | None = None,
    top_k: int = 5,
    flighting_runs: int | None = None,
    measured: list[QueryCandidates] | None = None,
) -> dict[str, MethodResult]:
    """Compare selection quality of trained methods on shared measurements.

    Returns results for every method plus the ``native`` (default plan) and
    ``oracle`` (best measured candidate) references.
    """
    runs = flighting_runs if flighting_runs is not None else project.scale.flighting_runs
    if measured is None:
        measured = measure_candidates(project, top_k=top_k, flighting_runs=runs)
    env_features = env_features or {}

    results: dict[str, MethodResult] = {}
    native_costs = [qc.measured_costs[qc.default_index] for qc in measured]
    oracle_costs = [qc.measured_costs[qc.oracle_index] for qc in measured]
    results["native"] = MethodResult(
        name="native",
        average_cost=float(np.mean(native_costs)),
        per_query_costs=[float(c) for c in native_costs],
        chose_default_fraction=1.0,
    )
    results["oracle"] = MethodResult(
        name="oracle",
        average_cost=float(np.mean(oracle_costs)),
        per_query_costs=[float(c) for c in oracle_costs],
        chose_default_fraction=float(
            np.mean([qc.oracle_index == qc.default_index for qc in measured])
        ),
    )

    for name, model in methods.items():
        env = env_features.get(name)
        # Models exposing a serving layer (AdaptiveCostPredictor) are scored
        # through it: cached encodings + bucketed batches + no-grad forward.
        service = getattr(model, "serving", None)
        predict = service.predict if service is not None else model.predict
        chosen_costs, chose_default, infer_times = [], [], []
        for qc in measured:
            started = time.perf_counter()
            predictions = predict(qc.plans, env_features=env)
            infer_times.append(time.perf_counter() - started)
            pick = choose(predictions, qc.default_index).index
            chosen_costs.append(qc.measured_costs[pick])
            chose_default.append(pick == qc.default_index)
        results[name] = MethodResult(
            name=name,
            average_cost=float(np.mean(chosen_costs)),
            per_query_costs=[float(c) for c in chosen_costs],
            chose_default_fraction=float(np.mean(chose_default)),
            average_inference_seconds=float(np.mean(infer_times)),
        )
    return results

