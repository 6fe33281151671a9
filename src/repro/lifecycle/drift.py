"""Drift detection over the feedback log: when must the model retrain?

A served cost model degrades for two distinct reasons, and the monitor
watches both:

* **prediction drift** — the workload's plan/cost relationship moved (new
  templates, changed data volumes), visible as rising q-error of recent
  outcomes against the model's own predictions;
* **environment drift** — the cluster's load distribution moved away from
  what the representative environment e_r was fitted on (challenge C1),
  visible as a shift of the mean environment-feature vector even while
  per-plan predictions still rank correctly.

Statistics are *rolling*: the most recent ``window`` records are compared
against the remainder of the (bounded) log, so the baseline itself slowly
follows the workload and a one-off burst of noise ages out.  The monitor
only raises a signal — retraining, validation, and promotion are the
canary's job (:mod:`repro.lifecycle.canary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lifecycle.feedback import FeedbackLog, FeedbackRecord

__all__ = ["DriftConfig", "DriftReport", "DriftMonitor"]


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds of the retrain signal (documented in docs/LIFECYCLE.md)."""

    #: Recent rolling window compared against the older remainder of the log.
    window: int = 64
    #: No signal is raised before this many outcomes exist (cold start).
    min_samples: int = 24
    #: Absolute alarm: mean q-error of the recent window.
    max_q_error: float = 3.0
    #: Relative alarm: recent mean q-error vs the baseline window's.
    degradation_ratio: float = 1.4
    #: Mean absolute shift of the 4 normalized environment-feature means.
    env_shift_threshold: float = 0.12


@dataclass
class DriftReport:
    """Outcome of one :meth:`DriftMonitor.assess` pass."""

    retrain: bool
    reasons: list[str] = field(default_factory=list)
    n_samples: int = 0
    recent_q_error: float = 0.0
    baseline_q_error: float = 0.0
    env_shift: float = 0.0


def _mean_q_error(records: list[FeedbackRecord]) -> float:
    if not records:
        return 0.0
    return float(np.mean([r.q_error for r in records]))


def _env_matrix(records: list[FeedbackRecord]) -> np.ndarray:
    rows = [r.env_features for r in records if r.env_features is not None]
    return np.array(rows, dtype=np.float64) if rows else np.zeros((0, 4))


class DriftMonitor:
    """Rolling prediction-error and environment-distribution statistics.

    Besides its own statistics, the monitor accepts *external* guardrail
    signals via :meth:`flag` — the serving gateway raises one whenever the
    incumbent's circuit breaker trips, because a model that errors or blows
    its latency budget online needs a retrain candidate regardless of what
    the feedback log's q-errors say.  Flags are consumed by the next
    :meth:`assess` and force ``retrain=True`` even below ``min_samples``.
    """

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config or DriftConfig()
        self._external_reasons: list[str] = []

    def flag(self, reason: str) -> None:
        """Queue an external retrain signal (e.g. ``circuit-breaker-trip``)
        for the next assessment; duplicate reasons collapse."""
        if reason not in self._external_reasons:
            self._external_reasons.append(reason)

    def assess(self, log: FeedbackLog) -> DriftReport:
        cfg = self.config
        records = log.records()
        report = DriftReport(retrain=False, n_samples=len(records))
        report.reasons.extend(self._external_reasons)
        self._external_reasons = []
        if len(records) < cfg.min_samples:
            report.retrain = bool(report.reasons)
            return report

        recent = records[-cfg.window :]
        baseline = records[: -cfg.window] if len(records) > cfg.window else []
        report.recent_q_error = _mean_q_error(recent)
        report.baseline_q_error = _mean_q_error(baseline) if baseline else report.recent_q_error

        if report.recent_q_error > cfg.max_q_error:
            report.reasons.append("q-error-absolute")
        if baseline and report.recent_q_error > cfg.degradation_ratio * report.baseline_q_error:
            report.reasons.append("q-error-degradation")

        recent_env = _env_matrix(recent)
        baseline_env = _env_matrix(baseline)
        if len(recent_env) and len(baseline_env):
            report.env_shift = float(
                np.mean(np.abs(recent_env.mean(axis=0) - baseline_env.mean(axis=0)))
            )
            if report.env_shift > cfg.env_shift_threshold:
                report.reasons.append("environment-shift")

        report.retrain = bool(report.reasons)
        return report
