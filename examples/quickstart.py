"""Quickstart: train LOAM on a simulated project and steer online queries.

Walks the full Figure-2 pipeline on a small project:

1. generate a project (catalog, templates, cluster) and simulate history;
2. train the adaptive cost predictor on historical default plans, with
   adversarial domain adaptation against unexecuted candidate plans;
3. validate against the native optimizer in the flighting environment;
4. serve an online query and inspect the steering decision.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.loam import LOAM, LOAMConfig
from repro.core.predictor import PredictorConfig
from repro.warehouse.workload import ProjectProfile, generate_project


def main() -> None:
    profile = ProjectProfile(
        name="quickstart",
        seed=7,
        n_tables=14,
        n_templates=12,
        queries_per_day=80.0,
        stats_availability=0.15,  # mostly-blind native optimizer (challenge C2)
        max_join_tables=5,
        row_scale=4e5,
        n_machines=60,
    )
    print(f"Generating project {profile.name!r} and simulating 10 days of history...")
    workload = generate_project(profile)
    workload.simulate_history(10, max_queries_per_day=80)
    print(f"  historical query repository: {len(workload.repository)} executions")

    config = LOAMConfig(
        max_training_queries=600,
        candidate_alignment_queries=40,
        top_k_candidates=5,
        flighting_runs=2,
        predictor=PredictorConfig(epochs=8, hidden_dims=(48, 48), embedding_dim=24),
    )
    loam = LOAM(workload, config)
    print("Training the adaptive cost predictor on days 0-8...")
    loam.train(first_day=0, last_day=8)
    report = loam.predictor.report
    assert report is not None
    print(
        f"  trained on {report.n_default_plans} default plans, aligned against "
        f"{report.n_candidate_plans} candidate plans in {report.train_seconds:.1f}s"
    )
    print(f"  representative environment e_r: {loam.environment.features()}")

    print("Validating on 10 held-out queries in the flighting environment...")
    test_queries = [workload.sample_query(9) for _ in range(10)]
    validation = loam.validate(test_queries)
    print(
        f"  native avg CPU cost {validation.native_average_cost:,.0f}  vs  "
        f"LOAM {validation.loam_average_cost:,.0f}  "
        f"(improvement {validation.improvement:+.1%})"
    )

    query = workload.sample_query(9)
    outcome = loam.optimize(query)
    print(f"\nSteering online query {query.query_id} ({query.n_tables} tables):")
    decision = outcome.decision
    for i, (plan, cost) in enumerate(zip(outcome.candidates, outcome.predicted_costs)):
        marker = "  <- chosen" if i == decision.index else ""
        if i == decision.default_index:
            marker += "  (native default)"
        print(f"  {plan.provenance:<32} predicted cost {cost:,.0f}{marker}")
    print(
        f"  plan generation {outcome.exploration_seconds * 1e3:.1f} ms, "
        f"inference {outcome.inference_seconds * 1e3:.1f} ms"
    )
    print("\nChosen plan:")
    print(outcome.chosen_plan.pretty())


if __name__ == "__main__":
    main()
