"""Theorem 1 in action: plan selection under unobservable environments.

Builds a candidate set for one query, fits log-normal cost distributions
from repeated flighting executions (Appendix E.1), and compares selection
rules:

* the oracle M_o (foresees the environment; deviance 0 by definition);
* the best-achievable M_b (minimum *expected* cost — Theorem 1's bound);
* the representative-environment rule M_r that LOAM deploys;
* the native optimizer M_d (always the default plan).

Run:  python examples/environment_inference.py
"""

from __future__ import annotations

import numpy as np

from repro.core.decision import default_index
from repro.core.deviance import DevianceEstimator
from repro.core.explorer import PlanExplorer
from repro.evaluation.reporting import format_table
from repro.warehouse.workload import ProjectProfile, generate_project


def main() -> None:
    profile = ProjectProfile(
        name="thm1",
        seed=21,
        n_tables=12,
        n_templates=10,
        stats_availability=0.1,
        max_join_tables=5,
        row_scale=5e5,
        n_machines=60,
    )
    workload = generate_project(profile)
    explorer = PlanExplorer(workload.optimizer)
    flighting = workload.flighting(seed_key="thm1")
    estimator = DevianceEstimator(n_samples=12)

    # Find a query with a genuinely diverse candidate set.
    for attempt in range(20):
        query = workload.sample_query(0)
        plans = explorer.candidates(query, top_k=5)
        if len(plans) >= 4:
            break
    print(f"Query {query.query_id}: {len(plans)} candidate plans")

    print(f"Executing each candidate {estimator.n_samples} times in flighting...")
    samples = [flighting.sample_costs(plan, estimator.n_samples) for plan in plans]
    report = estimator.report_from_samples(samples)
    d_index = default_index(plans)

    rows = []
    for i, (plan, dist) in enumerate(zip(plans, report.distributions)):
        marker = []
        if i == d_index:
            marker.append("M_d")
        if i == report.best_achievable_index:
            marker.append("M_b")
        rows.append(
            [
                plan.provenance,
                f"{dist.mean:,.0f}",
                f"{dist.sigma:.2f}",
                f"{report.per_plan_deviance[i]:,.0f}",
                f"{report.relative_deviance_of(i):.1%}",
                ",".join(marker),
            ]
        )
    print(
        format_table(
            ["candidate", "E[cost]", "sigma(log)", "E[deviance]", "rel. deviance", "role"],
            rows,
            title="\nCandidate cost distributions and deviances (Appendix E.1)",
        )
    )
    print(f"\noracle expected cost E[min_i C_i] = {report.oracle_cost:,.0f}")
    print(
        f"Theorem 1 bound: every fixed selection has E[D] >= E[D(M_b)] = "
        f"{report.best_achievable_deviance:,.0f} "
        f"({report.best_achievable_relative_deviance:.1%} of oracle cost) > E[D(M_o)] = 0"
    )

    worst = int(np.argmax(report.per_plan_deviance))
    print(
        f"native default plan deviance: {report.per_plan_deviance[d_index]:,.0f} "
        f"({report.improvement_space(d_index):.1%} improvement space); "
        f"worst candidate: {plans[worst].provenance} "
        f"({report.relative_deviance_of(worst):.1%})"
    )


if __name__ == "__main__":
    main()
