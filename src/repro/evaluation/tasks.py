"""Module-level task functions for the process-parallel evaluation harness.

Each function is one :class:`~repro.evaluation.parallel.EvalTask` unit — the
(project × method) granularity the evaluation figures sweep over.  They are
defined here (not in benchmark files) so a fork- or spawn-based worker can
always pickle them by reference, and every one takes ``seed`` as a keyword
argument per the harness contract: the seed flows into the predictor config,
making each task's result a pure function of ``(args, seed)``.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from repro.core.loam import LOAM, LOAMConfig
from repro.evaluation.harness import EvaluationProject, evaluate_methods

if TYPE_CHECKING:  # pragma: no cover
    from repro.evaluation.harness import MethodResult, QueryCandidates

__all__ = [
    "train_loam_task",
    "evaluate_project_task",
    "training_size_improvement_task",
    "lifecycle_adaptive_task",
]


def _seeded(config: LOAMConfig, seed: int) -> LOAMConfig:
    return replace(config, predictor=replace(config.predictor, seed=seed))


def train_loam_task(
    project: EvaluationProject,
    config: LOAMConfig,
    *,
    first_day: int,
    last_day: int,
    seed: int,
) -> LOAM:
    """Train one project's LOAM on its historical window."""
    loam = LOAM(project.workload, _seeded(config, seed))
    loam.train(first_day=first_day, last_day=last_day)
    return loam


def evaluate_project_task(
    project: EvaluationProject,
    methods: dict[str, Any],
    *,
    env_features: dict[str, tuple[float, float, float, float] | None],
    measured: "list[QueryCandidates]",
    seed: int,
) -> "dict[str, MethodResult]":
    """Score already-trained methods on one project's shared measurements.

    Scoring is deterministic given the measured pool; ``seed`` is accepted
    for the harness contract but has nothing left to randomize.
    """
    del seed
    return evaluate_methods(
        project, methods, env_features=env_features, measured=measured
    )


def training_size_improvement_task(
    project: EvaluationProject,
    config: LOAMConfig,
    *,
    n_training: int,
    first_day: int,
    last_day: int,
    measured: "list[QueryCandidates]",
    seed: int,
) -> float:
    """Figure 8 cell: train at a capped training-set size, return LOAM's
    improvement over the native optimizer."""
    capped = replace(_seeded(config, seed), max_training_queries=n_training)
    loam = LOAM(project.workload, capped)
    loam.train(first_day=first_day, last_day=last_day)
    results = evaluate_methods(
        project,
        {"loam": loam.predictor},
        env_features={"loam": loam.environment.features()},
        measured=measured,
    )
    return results["loam"].improvement_over(results["native"])


def lifecycle_adaptive_task(
    project: EvaluationProject,
    loam: LOAM,
    config: LOAMConfig,
    *,
    first_day: int,
    last_day: int,
    measured: "list[QueryCandidates]",
    seed: int,
) -> dict[str, Any]:
    """Figure 11 cell routed through the model lifecycle subsystem.

    The adversarially trained LOAM bootstraps an (ephemeral) registry and
    serves through the lifecycle's hot-swappable inference service; the
    shared measurement pool is replayed into its feedback log as
    executed-plan outcomes; the drift monitor runs over that log; and the
    LOAM-NA ablation is then submitted as a canary *candidate* — on the
    high-improvement-space projects its candidate-plan predictions are
    degraded, which is exactly what the regression gate exists to catch.
    The method scores are computed before the candidate submission so the
    figure keeps its paper semantics regardless of the canary verdict.
    """
    from repro.lifecycle import CanaryConfig, DriftConfig, ModelLifecycle
    from repro.lifecycle.registry import training_data_fingerprint

    na_config = _seeded(config, seed)
    na_config = replace(
        na_config, predictor=replace(na_config.predictor, adversarial=False)
    )
    loam_na = LOAM(project.workload, na_config)
    loam_na.train(first_day=first_day, last_day=last_day)

    lifecycle = ModelLifecycle(
        drift=DriftConfig(min_samples=12, window=32),
        canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4),
    )
    # The production request path: all online scoring goes through the
    # serving gateway (fallback + breaker + telemetry) rather than touching
    # the inference service directly.  No deadline is set, so a healthy
    # learned path yields selections identical to direct service calls.
    gateway = lifecycle.serve_through_gateway()
    env = loam.environment.features()
    fingerprint = training_data_fingerprint(
        [r.plan for r in project.train_records],
        [r.cpu_cost for r in project.train_records],
    )
    lifecycle.bootstrap(
        loam.predictor, environment_features=env, training_fingerprint=fingerprint
    )

    # Replay the shared measurement pool as executed-plan outcomes: every
    # retained candidate was actually run in flighting, so each one is a
    # (predicted, observed) feedback pair for the serving model.
    for qc in measured:
        predicted = gateway.predict(qc.plans, env_features=env).costs
        for plan, pred, observed in zip(qc.plans, predicted, qc.measured_costs):
            lifecycle.observe(
                plan,
                float(observed),
                predicted_cost=float(pred),
                env_features=env,
                day=last_day + 1,
            )
    drift = lifecycle.check_drift()

    # evaluate_methods scores cost vectors; the gateway answers GatewayResults.
    served = SimpleNamespace(
        predict=lambda plans, env_features: gateway.predict(plans, env_features=env_features).costs
    )
    results = evaluate_methods(
        project,
        {"loam": served, "loam-na": loam_na.predictor},
        env_features={"loam": env, "loam-na": loam_na.environment.features()},
        measured=measured,
    )
    canary, _ = lifecycle.submit_candidate(
        loam_na.predictor, environment_features=loam_na.environment.features()
    )
    results["lifecycle"] = {
        "drift": drift,
        "canary": canary,
        "served_version": lifecycle.current_version.version,
        "gateway": {
            "requests": gateway.telemetry.counter("requests_total").value,
            "learned": gateway.telemetry.counter("learned_total").value,
            "fallbacks": gateway.telemetry.counter("fallback_total").value,
            "breaker": gateway.breaker.stats(),
        },
    }
    gateway.close()
    return results
