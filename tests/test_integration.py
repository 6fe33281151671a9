"""Cross-module integration tests: system-level invariants of MiniDW + LOAM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import default_index
from repro.core.deviance import DevianceEstimator
from repro.core.explorer import PlanExplorer
from repro.warehouse.costmodel import annotate_true_cardinalities, intrinsic_plan_cost
from repro.warehouse.statistics import StatisticsView
from repro.warehouse.workload import ProjectProfile, generate_project


class TestOptimizerQuality:
    """The native optimizer must be *better with statistics than without* —
    the premise of challenge C2 and the whole improvement-space story."""

    def test_statistics_reduce_true_cost(self):
        profile = ProjectProfile(
            name="statcmp", seed=77, n_tables=10, n_templates=10,
            stats_availability=0.0, max_join_tables=4, row_scale=3e5,
        )
        blind_workload = generate_project(profile)
        informed_stats = StatisticsView(
            blind_workload.catalog, availability=1.0, staleness=0.02,
            rng=np.random.default_rng(0),
        )
        from repro.warehouse.optimizer import NativeOptimizer

        informed = NativeOptimizer(blind_workload.catalog, informed_stats)
        blind_total = informed_total = 0.0
        for _ in range(25):
            query = blind_workload.sample_query(0)
            blind_plan = blind_workload.optimizer.optimize(query)
            informed_plan = informed.optimize(query)
            annotate_true_cardinalities(blind_plan.root, query, blind_workload.catalog)
            annotate_true_cardinalities(informed_plan.root, query, blind_workload.catalog)
            blind_total += intrinsic_plan_cost(blind_plan.root)
            informed_total += intrinsic_plan_cost(informed_plan.root)
        assert informed_total < blind_total

    def test_improvement_space_shrinks_with_statistics(self):
        """Projects with good statistics leave less room for steering —
        the driver behind the Project 3/4 vs 1/2/5 contrast."""
        spaces = {}
        for availability in (0.05, 0.9):
            profile = ProjectProfile(
                name=f"space{int(availability*100)}", seed=55, n_tables=10,
                n_templates=10, stats_availability=availability,
                max_join_tables=4, row_scale=3e5, n_machines=40,
            )
            workload = generate_project(profile)
            explorer = PlanExplorer(workload.optimizer)
            flighting = workload.flighting(seed_key="int")
            estimator = DevianceEstimator(n_samples=5, n_grid=512)
            per_query = []
            for _ in range(12):
                query = workload.sample_query(0)
                plans = explorer.candidates(query, top_k=4)
                if len(plans) < 2:
                    continue
                samples = [flighting.sample_costs(p, 5) for p in plans]
                report = estimator.report_from_samples(samples)
                per_query.append(report.improvement_space(default_index(plans)))
            spaces[availability] = float(np.mean(per_query))
        assert spaces[0.05] > spaces[0.9] * 0.8  # allow noise; shape must hold


class TestExplorerSafety:
    def test_candidates_share_true_result_cardinality(self, small_project):
        """All candidate plans answer the same query, so their root output
        cardinality must agree (steering changes cost, not semantics)."""
        explorer = PlanExplorer(small_project.optimizer)
        for _ in range(5):
            query = small_project.sample_query(0)
            plans = explorer.candidates(query)
            roots = []
            for plan in plans:
                if plan.provenance == "flag:join_filter_pushdown":
                    continue  # modelled runtime filter perturbs the estimate
                annotate_true_cardinalities(plan.root, query, small_project.catalog)
                roots.append(plan.root.true_rows)
            assert max(roots) <= 10 * min(roots) + 10


class TestEndToEndPipeline:
    def test_full_pipeline_smoke(self):
        """Generate -> simulate -> train -> steer -> validate, tiny scale."""
        from repro.core.loam import LOAM, LOAMConfig
        from repro.core.predictor import PredictorConfig

        profile = ProjectProfile(
            name="pipeline", seed=3, n_tables=8, n_templates=6,
            queries_per_day=15, stats_availability=0.2, row_scale=1e5,
            n_machines=25,
        )
        workload = generate_project(profile)
        workload.simulate_history(3, max_queries_per_day=15)
        loam = LOAM(
            workload,
            LOAMConfig(
                max_training_queries=40,
                candidate_alignment_queries=6,
                flighting_runs=2,
                predictor=PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=2),
            ),
        )
        loam.train()
        outcome = loam.optimize(workload.sample_query(3))
        assert outcome.chosen_plan in outcome.candidates
        report = loam.validate([workload.sample_query(3) for _ in range(3)])
        assert report.n_queries == 3
        assert np.isfinite(report.improvement)
