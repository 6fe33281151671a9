"""Fleet-scale project selection: Filter rules + learned Ranker (Section 6).

Generates a heterogeneous fleet of projects, applies the rule-based Filter
(R1-R3) to exclude projects with training challenges, trains the Ranker on
a handful of measured projects, and ranks the remainder by estimated
improvement space D(M_d).

Run:  python examples/project_selection.py
"""

from __future__ import annotations

import numpy as np

from repro.core.decision import default_index
from repro.core.deviance import DevianceEstimator
from repro.core.explorer import PlanExplorer
from repro.core.selector import FilterConfig, ProjectFilter, ProjectRanker
from repro.evaluation.reporting import format_table
from repro.warehouse.workload import generate_project, profile_population


def improvement_spaces(workload, n_queries=6, n_samples=5):
    """Exact per-query D(M_d) via repeated flighting executions (App. E.1)."""
    explorer = PlanExplorer(workload.optimizer)
    flighting = workload.flighting(seed_key="selection")
    estimator = DevianceEstimator(n_samples=n_samples, n_grid=768)
    triples = []
    for _ in range(n_queries):
        query = workload.sample_query(14)
        plans = explorer.candidates(query, top_k=4)
        if len(plans) < 2:
            continue
        samples = [flighting.sample_costs(p, n_samples) for p in plans]
        report = estimator.report_from_samples(samples)
        d_index = default_index(plans)
        triples.append((plans[d_index], samples[d_index].mean(), report.improvement_space(d_index)))
    return triples


def main() -> None:
    print("Generating a 12-project fleet...")
    fleet = [generate_project(p) for p in profile_population(12, seed=5)]
    for workload in fleet:
        # Start mid-horizon so temporal tables are live; the cap keeps the
        # example fast while sub-cap project volumes still vary.
        workload.simulate_history(4, start_day=12, max_queries_per_day=100)

    # Stage 1: rule-based Filter (thresholds scaled to simulated volumes).
    project_filter = ProjectFilter(FilterConfig.scaled(volume_scale=0.02))
    survivors = []
    rows = []
    for workload in fleet:
        decision = project_filter.evaluate(
            workload.repository.records, workload.catalog, horizon_day=40
        )
        rows.append([
            workload.profile.name,
            f"{decision.n_query:.0f}",
            f"{decision.query_inc_ratio:.2f}",
            f"{decision.stable_table_ratio:.2f}",
            "PASS" if decision.passed else ",".join(decision.failed_rules),
        ])
        if decision.passed:
            survivors.append(workload)
    print(format_table(
        ["project", "n_query/day", "inc_ratio", "stable_ratio", "decision"],
        rows,
        title="Stage 1 - rule-based Filter (R1-R3)",
    ))
    print(f"{len(survivors)}/{len(fleet)} projects pass the filter\n")

    # Stage 2: learned Ranker, trained on the first survivors' measurements.
    train, test = survivors[: max(2, len(survivors) // 2)], survivors[max(2, len(survivors) // 2):]
    plans, catalogs, costs, spaces = [], [], [], []
    truth = {}
    print(f"Measuring improvement space on {len(train)} training projects...")
    for workload in train:
        for plan, cost, space in improvement_spaces(workload):
            plans.append(plan)
            catalogs.append(workload.catalog)
            costs.append(cost)
            spaces.append(space)
    ranker = ProjectRanker(n_estimators=60, max_depth=3)
    ranker.fit(plans, catalogs, costs, spaces)

    print(f"Ranking {len(test)} unseen projects by estimated D(M_d)...")
    scores = {}
    for workload in test:
        triples = improvement_spaces(workload, n_queries=4)
        truth[workload.profile.name] = float(np.mean([s for _, _, s in triples])) if triples else 0.0
        scores[workload.profile.name] = ranker.score_project(
            [p for p, _, _ in triples],
            workload.catalog,
            [c for _, c, _ in triples],
        ) if triples else 0.0
    ranking = ranker.rank_projects(scores)
    rows = [
        [name, f"{scores[name]:.3f}", f"{truth[name]:.3f}"] for name in ranking
    ]
    print(format_table(
        ["project (ranked)", "estimated D(Md)", "measured D(Md)"],
        rows,
        title="Stage 2 - learned Ranker output (deploy LOAM on the top-N)",
    ))


if __name__ == "__main__":
    main()
