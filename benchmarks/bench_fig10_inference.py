"""Figure 10: plan cost inference strategies under unknown environments.

Compares, per project (paper Section 7.2.5):

* **LOAM** — the representative average-case environment e_r (historical
  machine-level means);
* **LOAM-CE** — expected cluster-wide environment from a trailing window;
* **LOAM-CB** — cluster-wide environment at optimization time;
* **LOAM-NL** — no environment features at all (retrained);
* **best-achievable** M_b — selects the minimum-expected-cost candidate.

Two metrics: (a) E2E CPU cost of selections; (b) relative deviance from the
oracle model (deviance / oracle expected cost).  Paper shape: LOAM beats
the variants, LOAM-NL is consistently worst-or-equal, and the
best-achievable model's relative deviance sits around ~10 %.

(c) records why the service scores one environment per request.  The
learned model's own M_b estimate — the argmin of mean predicted cost over
``MB_ENVS`` seeded stage environments of the training history, the rows
``HistoricalMeanEnvironment.fit`` averages into e_r — is computed with one
``predict`` per environment and compared with LOAM's Mr pick:

* ``argmin_flip_share`` — sets where any single sampled environment
  changes Mr's argmin;
* ``mb_agree_share`` — sets where the M_b estimate picks what Mr picks;
* ``mb_vs_mr_gain`` — ``1 - cost(M_b picks) / cost(Mr picks)`` in
  flighting mean cost (positive: M_b is cheaper).
"""

from __future__ import annotations

import numpy as np

from conftest import PROJECT_NAMES, print_banner, train_loam
from repro.core.deviance import DevianceEstimator
from repro.core.explorer import PlanExplorer
from repro.core.inference import (
    ClusterCurrentEnvironment,
    ClusterExpectedEnvironment,
)
from repro.evaluation.reporting import format_table
from repro.gateway import OptimizerGateway

STRATEGIES = ("loam", "loam-ce", "loam-cb", "loam-nl", "best-achievable")

#: Stage environments the M_b estimate averages predicted cost over.
MB_ENVS = 32
MB_ROWS = ("argmin_flip_share", "mb_agree_share", "mb_vs_mr_gain")


def _stage_environments(records, k: int, seed: int = 0) -> list[tuple]:
    """``k`` seeded draws from the normalized stage environments of
    ``records``."""
    rows = [stage.environment.normalized() for record in records for stage in record.stages]
    picks = np.random.default_rng(seed).choice(len(rows), size=k, replace=len(rows) < k)
    return [tuple(float(v) for v in rows[i]) for i in picks]


def test_fig10_cost_inference_strategies(benchmark, eval_projects, trained_loams, scale):
    n_queries = max(6, scale.n_test_queries // 5)

    def run():
        e2e = {s: {} for s in STRATEGIES}
        deviance = {s: {} for s in STRATEGIES}
        mb = {row: {} for row in MB_ROWS}
        for name in PROJECT_NAMES:
            project = eval_projects[name]
            loam = trained_loams[name]
            loam_nl = train_loam(project, scale, use_environment=False)
            cluster = project.workload.cluster
            ce = ClusterExpectedEnvironment(cluster, n_samples=24, ticks_between=10)
            cb = ClusterCurrentEnvironment(cluster)

            explorer = PlanExplorer(project.workload.optimizer)
            flighting = project.workload.flighting(seed_key="fig10")
            estimator = DevianceEstimator(n_samples=scale.deviance_samples, n_grid=1024)

            sums = {s: 0.0 for s in STRATEGIES}
            devs = {s: [] for s in STRATEGIES}
            # (strategy, serving entry point, environment strategy or
            # None).  Each strategy scores a candidate set with one request
            # under one environment.  Requests route through the optimizer
            # gateway — the production front end — with no deadline, so
            # selections stay identical to direct service calls.
            gateway = OptimizerGateway(loam.predictor.serving)
            gateway_nl = OptimizerGateway(loam_nl.predictor.serving)
            learned = {
                "loam": (gateway, loam.environment),
                "loam-ce": (gateway, ce),
                "loam-cb": (gateway, cb),
                "loam-nl": (gateway_nl, None),
            }
            # The records ``LOAM.train`` fitted e_r on (same days, dedup, cap).
            stage_envs = _stage_environments(project.train_records, MB_ENVS)
            n_sets = flips = agree = 0
            mr_cost = mb_cost = 0.0
            for query in project.test_queries[:n_queries]:
                plans = explorer.candidates(query, top_k=5)
                samples = [flighting.sample_costs(p, estimator.n_samples) for p in plans]
                report = estimator.report_from_samples(samples)
                means = [s.mean() for s in samples]

                selections = {
                    strategy: service.select_best_index(
                        plans,
                        env_features=env.features() if env is not None else None,
                    )[0]
                    for strategy, (service, env) in learned.items()
                }
                selections["best-achievable"] = report.best_achievable_index
                for strategy, idx in selections.items():
                    sums[strategy] += means[idx]
                    devs[strategy].append(report.relative_deviance_of(idx))

                per_env = np.array(
                    [gateway.predict(plans, env_features=env).costs for env in stage_envs]
                )
                mr_pick = selections["loam"]
                mb_pick = int(np.argmin(per_env.mean(axis=0)))
                n_sets += 1
                flips += bool((per_env.argmin(axis=1) != mr_pick).any())
                agree += mb_pick == mr_pick
                mr_cost += means[mr_pick]
                mb_cost += means[mb_pick]
            for strategy in STRATEGIES:
                e2e[strategy][name] = sums[strategy] / n_queries
                deviance[strategy][name] = float(np.mean(devs[strategy]))
            mb["argmin_flip_share"][name] = flips / n_sets
            mb["mb_agree_share"][name] = agree / n_sets
            mb["mb_vs_mr_gain"][name] = 1.0 - mb_cost / mr_cost
            # A healthy learned path must never have engaged the guardrails.
            for gw in (gateway, gateway_nl):
                assert gw.telemetry.counter("fallback_total").value == 0
                gw.close()
        return e2e, deviance, mb

    e2e, deviance, mb = benchmark.pedantic(run, rounds=1, iterations=1)

    print_banner("Figure 10a - E2E CPU cost by inference strategy")
    print(
        format_table(
            ["strategy", *PROJECT_NAMES],
            [[s, *(f"{e2e[s][p]:,.0f}" for p in PROJECT_NAMES)] for s in STRATEGIES],
        )
    )
    print_banner("Figure 10b - relative deviance from the oracle model")
    print(
        format_table(
            ["strategy", *PROJECT_NAMES],
            [[s, *(f"{deviance[s][p]:.1%}" for p in PROJECT_NAMES)] for s in STRATEGIES],
        )
    )
    print_banner(f"Figure 10c - M_b estimate over {MB_ENVS} stage environments vs Mr")
    print(
        format_table(
            ["row", *PROJECT_NAMES],
            [[row, *(f"{mb[row][p]:.3f}" for p in PROJECT_NAMES)] for row in MB_ROWS],
        )
    )

    # Shape assertions.
    mean_dev = {s: np.mean([deviance[s][p] for p in PROJECT_NAMES]) for s in STRATEGIES}
    # The best-achievable model has the smallest relative deviance, and no
    # learned strategy gets below it.
    for s in ("loam", "loam-ce", "loam-cb", "loam-nl"):
        assert mean_dev[s] >= mean_dev["best-achievable"] - 1e-6
    # LOAM's representative environment beats dropping environments entirely.
    # Scale-aware band (same rationale as bench_fig11): at smoke scale the
    # tiny train set makes per-project deviance noisy enough that the two
    # strategies can land ~3 points apart either way; larger scales keep
    # the tight 2 % band.
    tolerance = 0.06 if scale.name == "smoke" else 0.02
    assert mean_dev["loam"] <= mean_dev["loam-nl"] + tolerance
    # Intrinsic gap: best-achievable deviance is materially nonzero
    # (paper: ~10% of oracle cost).
    assert 0.005 < mean_dev["best-achievable"] < 0.6
    # A set no single environment reorders cannot be reordered by their
    # mean: every set M_b disagrees on is a set some environment flips.
    for p in PROJECT_NAMES:
        assert mb["mb_agree_share"][p] >= 1.0 - mb["argmin_flip_share"][p]
