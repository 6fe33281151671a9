"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``explain``   compile a SQL statement against a generated project and print
              the default plan plus every steered candidate;
``fleet-select``  run Filter + Ranker over a generated fleet and print rankings;
``scenarios`` ``--list`` prints the scenario registry; ``--scenario NAME``
              replays one scenario in logical mode through a live lifecycle
              against ``--target gateway|fleet`` and prints its per-regime
              table and lifecycle events.

All commands are deterministic given ``--seed``.  What the serving stack
guarantees is asserted by the tier-1 suite (``tests/``), not here.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LOAM reproduction: learned query optimization on MiniDW",
    )
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser("explain", help="compile SQL and show steered candidates")
    explain.add_argument("sql", help="a MiniDW SELECT statement (see repro.warehouse.sql)")

    fleet_select = sub.add_parser(
        "fleet-select", help="project selection over a generated fleet"
    )
    fleet_select.add_argument("--projects", type=int, default=10)

    scenarios = sub.add_parser(
        "scenarios", help="list the scenario registry or replay one scenario"
    )
    what = scenarios.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    what.add_argument(
        "--scenario",
        default=None,
        help="replay one named scenario and print its per-regime table",
    )
    scenarios.add_argument(
        "--target",
        choices=("gateway", "fleet"),
        default="gateway",
        help="serving target to replay against",
    )
    scenarios.add_argument(
        "--epochs", type=int, default=10, help="incumbent training epochs"
    )
    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explorer import PlanExplorer
    from repro.warehouse.sql import parse_sql
    from repro.warehouse.workload import ProjectProfile, generate_project

    workload = generate_project(
        ProjectProfile(name="cli-explain", seed=args.seed, n_tables=12, n_templates=6)
    )
    query = parse_sql(args.sql, project="cli-explain")
    explorer = PlanExplorer(workload.optimizer)
    result = explorer.explore(query)
    for plan in result.plans:
        print(f"--- {plan.provenance}")
        print(plan.pretty())
    print(
        f"\n{len(result.plans)} candidate plans from {result.optimize_calls} optimize() calls "
        f"in {result.generation_seconds * 1e3:.1f} ms"
    )
    return 0


def _cmd_fleet_select(args: argparse.Namespace) -> int:
    from repro.core.selector import FilterConfig, ProjectFilter
    from repro.warehouse.workload import generate_project, profile_population

    fleet = [generate_project(p) for p in profile_population(args.projects, seed=args.seed)]
    project_filter = ProjectFilter(FilterConfig.scaled(volume_scale=0.005))
    passed = 0
    for workload in fleet:
        workload.simulate_history(3, max_queries_per_day=15)
        decision = project_filter.evaluate(
            workload.repository.records, workload.catalog, horizon_day=40
        )
        status = "PASS" if decision.passed else "FAIL " + ",".join(decision.failed_rules)
        print(f"{workload.profile.name:<12} {status}")
        passed += decision.passed
    print(f"\n{passed}/{len(fleet)} projects pass the Filter (paper: 40.5%)")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """``--list`` prints the registry; ``--scenario NAME`` replays one
    scenario (logical mode, live lifecycle) and prints its per-regime table
    and lifecycle events."""
    from repro.evaluation.reporting import format_table
    from repro.workload import (
        FleetTarget,
        GatewayTarget,
        ReplayConfig,
        ReplayEngine,
        ScenarioRuntime,
        build_lifecycle,
        build_scenario,
        list_scenarios,
    )

    if args.list:
        print(format_table(
            ["scenario", "description"],
            [[name, desc] for name, desc in list_scenarios()],
        ))
        return 0

    if args.target == "fleet":
        from repro.evaluation.pool import fork_available

        if not fork_available():
            print("scenarios: fleet target requires fork; skipping cleanly")
            return 0

    runtime = ScenarioRuntime(seed=args.seed)
    lifecycle = build_lifecycle(runtime, runtime.train_incumbent(epochs=args.epochs))
    if args.target == "fleet":
        from repro.fleet import ServingFleet

        fleet = ServingFleet(n_workers=2)  # attach_fleet ships the model
        lifecycle.attach_fleet(fleet)
        target, closer = FleetTarget(fleet), fleet.close
    else:
        gateway = lifecycle.serve_through_gateway()
        target, closer = GatewayTarget(gateway), gateway.close
    try:
        engine = ReplayEngine(
            runtime, lifecycle=lifecycle, config=ReplayConfig(mode="logical")
        )
        report = engine.run(build_scenario(args.scenario), target)
    finally:
        closer()

    print(f"{args.scenario} via {args.target} ({report.n_requests} requests, "
          f"retrains {report.retrains}, promotes {report.promotes})")
    rows = []
    for label, seg in report.segments.items():
        sheds = ", ".join(
            f"{count} {reason}" for reason, count in seg["shed_reasons"].items()
        ) or "-"
        rows.append([
            label,
            f"{seg['requests']}",
            f"{seg['learned_rate']:.0%}",
            f"{seg['p99_ms']:.2f}",
            f"{seg['mean_steering_benefit']:+.3f}",
            sheds,
        ])
    print(format_table(
        ["regime", "requests", "learned", "p99 ms", "steering benefit", "sheds"],
        rows,
    ))
    for event in report.events:
        print(f"  event t={event.at:6.2f}  {event.kind}  {event.detail}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "explain": _cmd_explain,
        "fleet-select": _cmd_fleet_select,
        "scenarios": _cmd_scenarios,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
