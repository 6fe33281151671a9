"""Extension bench: diversified plan exploration (Section 7.3's outlook).

The paper closes by noting its fleet-benefit estimate "could be
substantially improved by incorporating more diversified plan exploration
strategies".  This bench quantifies that: the best-achievable improvement
space of the standard single-flag explorer vs an extended explorer that
also tries flag *pairs*, on the same test queries.
"""

from __future__ import annotations

import numpy as np

from conftest import print_banner
from repro.core.decision import default_index
from repro.core.explorer import PlanExplorer
from repro.evaluation.reporting import format_table


def test_ext_diversified_exploration(benchmark, eval_projects, scale):
    project = eval_projects["project2"]
    queries = project.test_queries[: max(8, scale.n_test_queries // 4)]
    flighting = project.workload.flighting(seed_key="divexp")
    single = PlanExplorer(project.workload.optimizer)
    paired = PlanExplorer(project.workload.optimizer, flag_pairs=True)

    def run():
        stats = {"single": [0.0, 0.0, 0.0], "paired": [0.0, 0.0, 0.0]}
        plan_counts = {"single": [], "paired": []}
        for query in queries:
            for label, explorer in (("single", single), ("paired", paired)):
                result = explorer.explore(query)
                plan_counts[label].append(len(result.plans))
                costs = [
                    flighting.measure_cost(plan, n_runs=scale.flighting_runs)
                    for plan in result.plans
                ]
                stats[label][0] += costs[default_index(result.plans)]
                stats[label][1] += min(costs)
                stats[label][2] += result.generation_seconds
        return stats, plan_counts

    stats, plan_counts = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in ("single", "paired"):
        native, oracle, gen_seconds = stats[label]
        rows.append(
            [
                label,
                f"{np.mean(plan_counts[label]):.1f}",
                f"{1.0 - oracle / native:+.1%}",
                f"{gen_seconds / len(queries) * 1e3:.1f} ms",
            ]
        )
    print_banner("Extension - diversified exploration (flag pairs)")
    print(
        format_table(
            ["explorer", "avg candidates", "best-achievable improvement", "gen time/query"],
            rows,
        )
    )

    single_space = 1.0 - stats["single"][1] / stats["single"][0]
    paired_space = 1.0 - stats["paired"][1] / stats["paired"][0]
    # More candidates can only enlarge the best-achievable space (same
    # queries, superset of plans up to dedup), at higher generation cost.
    assert paired_space >= single_space - 0.01
    assert np.mean(plan_counts["paired"]) >= np.mean(plan_counts["single"])
