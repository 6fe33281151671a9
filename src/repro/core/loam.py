"""The end-to-end LOAM facade (Section 3, Figure 2).

One object wires the pipeline together for a single project:

1. **train** — collect deduplicated default plans from the historical query
   repository, generate (but never execute) candidate plans for domain
   alignment, fit the adaptive cost predictor, and fit the representative
   environment from historical stage-level observations;
2. **validate** — replay held-out test queries in the flighting environment
   and compare LOAM's selections against the native default plans, gating
   deployment;
3. **optimize** — serve an online query: explore candidates, predict their
   costs under the representative environment, return the cheapest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.decision import Decision, choose, default_index
from repro.core.encoding import PlanEncoder
from repro.core.explorer import PlanExplorer
from repro.core.inference import EnvironmentStrategy, HistoricalMeanEnvironment
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import Query
from repro.warehouse.workload import ProjectWorkload

__all__ = ["LOAMConfig", "LOAM", "ValidationReport", "OptimizationOutcome"]


@dataclass(frozen=True)
class LOAMConfig:
    """Operating parameters (paper defaults where stated)."""

    max_training_queries: int = 10_000  # Section 7.1 cap
    candidate_alignment_queries: int = 200  # queries explored for DomClf
    top_k_candidates: int = 5  # Section 7.1 keeps top-5
    flighting_runs: int = 3  # repeated executions per measurement
    predictor: PredictorConfig = field(default_factory=PredictorConfig)


@dataclass
class ValidationReport:
    """Flighting comparison on held-out queries, gating deployment."""

    n_queries: int
    loam_average_cost: float
    native_average_cost: float
    per_query_loam: list[float]
    per_query_native: list[float]
    #: Executed-plan outcomes collected during validation: (plan, predicted
    #: cost, measured cost) per flighting measurement, for both the chosen
    #: and the default plan.  Feeds the lifecycle FeedbackLog.
    feedback: list[tuple[PhysicalPlan, float, float]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative CPU saving of LOAM over the native optimizer."""
        if self.native_average_cost <= 0:
            return 0.0
        return 1.0 - self.loam_average_cost / self.native_average_cost

    def suitable_for_production(self, *, min_improvement: float = 0.0) -> bool:
        return self.improvement > min_improvement


@dataclass
class OptimizationOutcome:
    """Result of steering one online query."""

    decision: Decision
    candidates: list[PhysicalPlan]
    predicted_costs: np.ndarray
    exploration_seconds: float
    inference_seconds: float

    @property
    def chosen_plan(self) -> PhysicalPlan:
        return self.candidates[self.decision.index]


class LOAM:
    """One-stop learned query optimizer for one project."""

    def __init__(
        self,
        workload: ProjectWorkload,
        config: LOAMConfig | None = None,
        *,
        encoder: PlanEncoder | None = None,
    ) -> None:
        self.workload = workload
        self.config = config or LOAMConfig()
        self.encoder = encoder or PlanEncoder()
        self.explorer = PlanExplorer(workload.optimizer)
        self.predictor = AdaptiveCostPredictor(self.encoder, self.config.predictor)
        self.environment: EnvironmentStrategy = HistoricalMeanEnvironment()
        self.trained = False

    # -- training ------------------------------------------------------------------

    def train(
        self,
        *,
        first_day: int | None = None,
        last_day: int | None = None,
    ) -> None:
        """Fit predictor and representative environment from history."""
        records = self.workload.repository.default_plan_records(first_day, last_day)
        records = self.workload.repository.deduplicated(records)
        if not records:
            raise RuntimeError(
                f"no training records in repository of {self.workload.profile.name}"
            )
        records = records[: self.config.max_training_queries]

        plans = [r.plan for r in records]
        costs = [r.cpu_cost for r in records]
        self.environment = HistoricalMeanEnvironment(records)

        # Candidate plans for domain alignment: generated, never executed.
        candidates: list[PhysicalPlan] = []
        rng = np.random.default_rng(self.config.predictor.seed)
        sample_size = min(self.config.candidate_alignment_queries, len(records))
        for i in rng.choice(len(records), size=sample_size, replace=False):
            for plan in self.explorer.candidates(records[int(i)].plan.query):
                if not plan.is_default:
                    candidates.append(plan)

        self.predictor.fit(plans, costs, candidates)
        self.trained = True

    # -- serving --------------------------------------------------------------------

    def optimize(self, query: Query) -> OptimizationOutcome:
        """Steer one online query (Figure 2's serving path)."""
        if not self.trained:
            raise RuntimeError("LOAM.optimize before train()")
        exploration = self.explorer.explore(query, top_k=self.config.top_k_candidates)
        started = time.perf_counter()
        predicted = self.predictor.predict(
            exploration.plans, env_features=self.environment.features()
        )
        decision = choose(predicted, default_index(exploration.plans))
        inference_seconds = time.perf_counter() - started
        return OptimizationOutcome(
            decision=decision,
            candidates=exploration.plans,
            predicted_costs=predicted,
            exploration_seconds=exploration.generation_seconds,
            inference_seconds=inference_seconds,
        )

    # -- validation --------------------------------------------------------------------

    def validate(self, test_queries: list[Query]) -> ValidationReport:
        """Measure LOAM vs native on held-out queries in flighting."""
        if not self.trained:
            raise RuntimeError("LOAM.validate before train()")
        flighting = self.workload.flighting(seed_key="validation")
        loam_costs, native_costs = [], []
        feedback: list[tuple[PhysicalPlan, float, float]] = []
        runs = self.config.flighting_runs
        for query in test_queries:
            outcome = self.optimize(query)
            chosen, default = outcome.decision.index, outcome.decision.default_index
            plans, predictions = outcome.candidates, outcome.predicted_costs
            loam_cost = flighting.measure_cost(plans[chosen], n_runs=runs)
            native_cost = flighting.measure_cost(plans[default], n_runs=runs)
            loam_costs.append(loam_cost)
            native_costs.append(native_cost)
            # Executed-plan outcomes (chosen + default) for the lifecycle
            # feedback loop: predicted cost alongside the measured one.
            feedback.append((plans[chosen], float(predictions[chosen]), loam_cost))
            if default != chosen:
                feedback.append((plans[default], float(predictions[default]), native_cost))
        return ValidationReport(
            n_queries=len(test_queries),
            loam_average_cost=float(np.mean(loam_costs)) if loam_costs else 0.0,
            native_average_cost=float(np.mean(native_costs)) if native_costs else 0.0,
            per_query_loam=loam_costs,
            per_query_native=native_costs,
            feedback=feedback,
        )
