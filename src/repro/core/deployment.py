"""Fleet-scale deployment orchestration: the full "one-stop" loop.

Figure 2's pipeline, operated across a fleet of projects:

1. **Filter** — exclude projects with training challenges (rules R1–R3);
2. **Rank** — estimate each surviving project's improvement space D(M_d)
   with the learned Ranker and keep the top-N;
3. **Train** — fit an adaptive cost predictor per selected project from its
   historical repository;
4. **Validate** — replay held-out queries in flighting; deploy only when
   the measured improvement clears the gate;
5. **Feedback** — measured (default plan, D(M_d)) pairs from validation
   flow back into the Ranker's training pool, so ranking accuracy improves
   as more projects are evaluated (Section 6's closing loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.decision import default_index
from repro.core.deviance import DevianceEstimator
from repro.core.explorer import PlanExplorer
from repro.core.loam import LOAM, LOAMConfig, ValidationReport
from repro.core.selector import FilterConfig, ProjectFilter, ProjectRanker
from repro.lifecycle import (
    CanaryConfig,
    CanaryReport,
    DriftConfig,
    ModelLifecycle,
    training_data_fingerprint,
)
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.workload import ProjectWorkload

__all__ = ["DeploymentConfig", "ProjectOutcome", "FleetReport", "FleetManager"]


@dataclass(frozen=True)
class DeploymentConfig:
    """Operating parameters of the fleet loop."""

    top_n: int = 3  # projects to train per round (Section 6: top-N)
    min_validated_improvement: float = 0.0  # deployment gate
    validation_queries: int = 10
    ranker_queries_per_project: int = 5  # workload sample for scoring
    deviance_samples: int = 6  # executions per plan when measuring D(M_d)
    loam: LOAMConfig = field(default_factory=LOAMConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    #: Canary gate for re-deployments: a retrained model must be no worse
    #: than the incumbent on held-out feedback.  The fleet's validation
    #: rounds are short, so the holdout threshold is low by default.
    canary: CanaryConfig = field(default_factory=lambda: CanaryConfig(
        holdout_fraction=0.5, min_holdout=2
    ))
    drift: DriftConfig = field(default_factory=DriftConfig)
    #: Where per-project model registries live.  ``None`` keeps each
    #: project's registry in an ephemeral temporary directory.
    registry_root: str | None = None


@dataclass
class ProjectOutcome:
    """What happened to one project during a fleet round."""

    name: str
    filtered_out: bool = False
    failed_rules: list[str] = field(default_factory=list)
    ranker_score: float = 0.0
    selected: bool = False
    validation: ValidationReport | None = None
    deployed: bool = False
    #: Canary verdict when this round replaced (or failed to replace) an
    #: already-deployed incumbent; None on first deployment.
    canary: CanaryReport | None = None
    #: Registry version serving after this round (None if never deployed).
    model_version: int | None = None

    @property
    def status(self) -> str:
        if self.filtered_out:
            return f"filtered ({','.join(self.failed_rules)})"
        if not self.selected:
            return "ranked-out"
        if self.deployed:
            assert self.validation is not None
            version = f" v{self.model_version}" if self.model_version else ""
            return f"deployed{version} ({self.validation.improvement:+.1%})"
        if self.canary is not None and not self.canary.passed:
            return f"canary-{self.canary.decision}"
        if self.validation is not None:
            return f"rejected ({self.validation.improvement:+.1%})"
        return "selected"


@dataclass
class FleetReport:
    """Outcome of one round over the whole fleet."""

    outcomes: list[ProjectOutcome]

    @property
    def pass_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([not o.filtered_out for o in self.outcomes]))

    @property
    def deployed_projects(self) -> list[str]:
        return [o.name for o in self.outcomes if o.deployed]

class FleetManager:
    """Runs the Filter → Rank → Train → Validate → Deploy loop."""

    def __init__(
        self,
        config: DeploymentConfig | None = None,
        *,
        ranker: ProjectRanker | None = None,
    ) -> None:
        self.config = config or DeploymentConfig()
        self.filter = ProjectFilter(self.config.filter)
        self.ranker = ranker or ProjectRanker()
        self.deployed: dict[str, LOAM] = {}
        #: Per-project model lifecycle (registry + feedback + drift + canary);
        #: created on a project's first validated deployment.
        self.lifecycles: dict[str, ModelLifecycle] = {}
        # The Ranker's growing training pool: (plan, catalog, cost, D(M_d)).
        self._ranker_pool: list[tuple[PhysicalPlan, object, float, float]] = []

    def lifecycle_for(self, name: str) -> ModelLifecycle:
        """The project's lifecycle, created lazily on first use."""
        lifecycle = self.lifecycles.get(name)
        if lifecycle is None:
            root = None
            if self.config.registry_root is not None:
                root = f"{self.config.registry_root}/{name}"
            lifecycle = ModelLifecycle(
                root, drift=self.config.drift, canary=self.config.canary
            )
            self.lifecycles[name] = lifecycle
        return lifecycle

    # -- ranker bootstrap / feedback ------------------------------------------

    def seed_ranker(self, workloads: list[ProjectWorkload], *, sample_day: int = 0) -> int:
        """Bootstrap the Ranker from measured improvement spaces on a few
        projects (the paper trains across multiple projects first)."""
        for workload in workloads:
            self._collect_ranker_examples(workload, sample_day=sample_day)
        self._refit_ranker()
        return len(self._ranker_pool)

    def _collect_ranker_examples(self, workload: ProjectWorkload, *, sample_day: int) -> None:
        explorer = PlanExplorer(workload.optimizer)
        flighting = workload.flighting(seed_key="fleet-ranker")
        estimator = DevianceEstimator(n_samples=self.config.deviance_samples, n_grid=768)
        for _ in range(self.config.ranker_queries_per_project):
            query = workload.sample_query(sample_day)
            plans = explorer.candidates(query, top_k=4)
            if len(plans) < 2:
                continue
            samples = [flighting.sample_costs(p, estimator.n_samples) for p in plans]
            report = estimator.report_from_samples(samples)
            d_index = default_index(plans)
            self._ranker_pool.append(
                (
                    plans[d_index],
                    workload.catalog,
                    float(samples[d_index].mean()),
                    report.improvement_space(d_index),
                )
            )

    def _refit_ranker(self) -> None:
        if not self._ranker_pool:
            raise RuntimeError("Ranker pool is empty; call seed_ranker first")
        plans, catalogs, costs, spaces = zip(*self._ranker_pool)
        self.ranker.fit(list(plans), list(catalogs), list(costs), list(spaces))

    # -- the round -----------------------------------------------------------------

    def run_round(
        self,
        fleet: list[ProjectWorkload],
        *,
        sample_day: int = 0,
        validation_day: int | None = None,
        horizon_day: int | None = None,
    ) -> FleetReport:
        """One full selection/deployment round over ``fleet``.

        ``horizon_day`` is "today" for table-lifespan purposes (rule R3);
        pass the project's true age when the simulated history is shorter
        than the R3 lifespan threshold.
        """
        if not self._ranker_pool:
            raise RuntimeError("seed_ranker must run before the first round")
        outcomes = {w.profile.name: ProjectOutcome(name=w.profile.name) for w in fleet}

        # Stage 1: rule-based filter.
        survivors: list[ProjectWorkload] = []
        for workload in fleet:
            decision = self.filter.evaluate(
                workload.repository.records, workload.catalog, horizon_day=horizon_day
            )
            outcome = outcomes[workload.profile.name]
            if decision.passed:
                survivors.append(workload)
            else:
                outcome.filtered_out = True
                outcome.failed_rules = decision.failed_rules

        # Stage 2: learned ranking by estimated improvement space.
        scores: dict[str, float] = {}
        by_name = {w.profile.name: w for w in survivors}
        for workload in survivors:
            sample = workload.repository.deduplicated()[-20:]
            if not sample:
                scores[workload.profile.name] = 0.0
                continue
            scores[workload.profile.name] = self.ranker.score_project(
                [r.plan for r in sample],
                workload.catalog,
                [r.cpu_cost for r in sample],
            )
        ranking = self.ranker.rank_projects(scores)
        selected = ranking[: self.config.top_n]
        for name, score in scores.items():
            outcomes[name].ranker_score = score
            outcomes[name].selected = name in selected

        # Stages 3-5: train, validate, deploy through the model lifecycle,
        # feed the ranker.
        for name in selected:
            workload = by_name[name]
            loam = LOAM(workload, self.config.loam)
            loam.train()
            day = validation_day if validation_day is not None else sample_day
            queries = [
                workload.sample_query(day) for _ in range(self.config.validation_queries)
            ]
            validation = loam.validate(queries)
            outcome = outcomes[name]
            outcome.validation = validation
            if validation.suitable_for_production(
                min_improvement=self.config.min_validated_improvement
            ):
                self._deploy_through_lifecycle(name, loam, validation, day, outcome)
            # Feedback: validation produced fresh default-plan measurements.
            self._collect_ranker_examples(workload, sample_day=day)
        self._refit_ranker()
        return FleetReport(outcomes=list(outcomes.values()))

    def _deploy_through_lifecycle(
        self,
        name: str,
        loam: LOAM,
        validation: ValidationReport,
        day: int,
        outcome: ProjectOutcome,
    ) -> None:
        """Guarded rollout of a validated model (Section 6's closing loop).

        The first validated model bootstraps the project's registry; every
        later round's retrain is a *candidate* that must clear the canary
        gate against the live incumbent on held-out feedback before the
        hot swap.  A rejected candidate is registered unpromoted and the
        incumbent keeps serving (fallback semantics).
        """
        lifecycle = self.lifecycle_for(name)
        env = loam.environment.features()
        records = loam.workload.repository.deduplicated()
        fingerprint = training_data_fingerprint(
            [r.plan for r in records], [r.cpu_cost for r in records]
        )
        metrics = {
            "validated_improvement": validation.improvement,
            "n_validation_queries": validation.n_queries,
        }
        # Validation's executed-plan outcomes feed the lifecycle log first,
        # so the canary judges the candidate on fresh measurements too.
        for plan, predicted, observed in validation.feedback:
            lifecycle.feedback.record(
                plan,
                predicted,
                observed,
                env_features=env,
                day=day,
                model_version=lifecycle.current_version.version
                if lifecycle.current_version
                else 0,
            )
        report, entry = lifecycle.submit_candidate(
            loam.predictor,
            environment_features=env,
            training_fingerprint=fingerprint,
            metrics=metrics,
        )
        if report.decision != "bootstrap":
            outcome.canary = report
        if report.passed:
            assert entry is not None
            outcome.deployed = True
            outcome.model_version = entry.version
            self.deployed[name] = loam
