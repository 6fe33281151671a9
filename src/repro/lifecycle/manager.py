"""The lifecycle manager: one object operating the full guarded loop.

Wires the four components into the continuous cycle the paper's deployment
story requires (train offline → register → serve → collect outcomes →
detect drift → canary-validate the retrain → promote or fall back)::

            ┌────────────────────────────────────────────────┐
            │                 ModelLifecycle                 │
            │                                                │
   train ──▶│ bootstrap/submit_candidate ──▶ CanaryController│
            │        │ promote                    │ reject   │
            │        ▼                            ▼          │
            │  ModelRegistry ──▶ CostInferenceService        │
            │  (current ptr)      (hot swap, version bump)   │
            │        ▲                            │          │
            │        │ retrain signal             │ serve    │
            │  DriftMonitor ◀── FeedbackLog ◀─── observe ────┼──▶ executor
            └────────────────────────────────────────────────┘

Before any model is promoted (``has_model`` is False) the warehouse's
default cost model keeps full control — callers simply keep using the
native optimizer's plan, which is also the fallback whenever a canary
rejects a candidate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.lifecycle.canary import CanaryConfig, CanaryController, CanaryReport
from repro.lifecycle.drift import DriftConfig, DriftMonitor, DriftReport
from repro.lifecycle.feedback import FeedbackLog
from repro.lifecycle.registry import ModelRegistry, ModelVersion

__all__ = ["ModelLifecycle"]


class ModelLifecycle:
    """Versioned, feedback-driven, canary-gated model serving for one project."""

    def __init__(
        self,
        registry: ModelRegistry | str | Path | None = None,
        *,
        feedback: FeedbackLog | None = None,
        drift: DriftMonitor | DriftConfig | None = None,
        canary: CanaryController | CanaryConfig | None = None,
        warm_top_k: int = 32,
        recorder=None,
    ) -> None:
        self._tmpdir = None
        if registry is None:
            # Ephemeral registry (tests, per-task benchmark workers); the
            # directory lives as long as the lifecycle object.
            self._tmpdir = tempfile.TemporaryDirectory(prefix="loam-registry-")
            registry = ModelRegistry(self._tmpdir.name)
        elif not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.feedback = feedback or FeedbackLog()
        self.drift_monitor = drift if isinstance(drift, DriftMonitor) else DriftMonitor(drift)
        self.canary = canary if isinstance(canary, CanaryController) else CanaryController(canary)
        #: How many of the feedback log's hottest plans to re-score right
        #: after a hot swap (0 disables the post-promote warming pass).
        self.warm_top_k = warm_top_k
        self._predictor = None
        self._service = None
        #: Gateways fronting this lifecycle's service (see
        #: :meth:`serve_through_gateway`); notified on every hot swap so
        #: their guards reset for the new model version.
        self._gateways: list = []
        #: Serving fleets attached via :meth:`attach_fleet`: every
        #: promotion/rollback broadcasts the newly-current registry
        #: checkpoint to them as a staged, cache-warming rollout.
        self._fleets: list = []
        #: Optional :class:`repro.obs.FlightRecorder`: model-lifecycle
        #: transitions (bootstrap, canary verdict, promote, reject,
        #: rollback, drift-flagged) land in its ring as structured events,
        #: so an incident dump shows *what the fleet was serving and why*
        #: alongside the raw request events.
        self.recorder = recorder
        self.environment_features: tuple[float, float, float, float] | None = None
        if self.registry.current is not None:
            predictor, env = self.registry.load()
            self._attach(predictor, env)

    def _record(self, kind: str, name: str = "", **attrs) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, name, **attrs)

    # -- serving -------------------------------------------------------------

    @property
    def has_model(self) -> bool:
        """False until a first model is promoted; the native optimizer's
        default cost model is in charge while this is False."""
        return self._predictor is not None

    @property
    def predictor(self):
        if self._predictor is None:
            raise RuntimeError("lifecycle has no promoted model yet")
        return self._predictor

    @property
    def service(self):
        """The live :class:`~repro.serving.service.CostInferenceService`."""
        if self._service is None:
            raise RuntimeError("lifecycle has no promoted model yet")
        return self._service

    @property
    def current_version(self) -> ModelVersion | None:
        return self.registry.current

    def _attach(self, predictor, environment_features) -> None:
        from repro.serving.service import CostInferenceService

        self.environment_features = environment_features
        warm = self._warm_list()
        if self._service is None:
            self._predictor = predictor
            self._service = CostInferenceService(predictor)
            for gateway in self._gateways:
                gateway.attach_service(self._service)
        else:
            # Hot swap, warming both cache tiers with the feedback log's
            # hottest recurring plans so the promote's first requests for
            # fleet-hot shapes are served warm instead of as a cold burst.
            self._service.swap_predictor(predictor, warm=warm)
            self._predictor = predictor
            for gateway in self._gateways:
                gateway.notify_swap()
        self._ship_current(self._fleets, warm)

    def _warm_list(self):
        """The feedback log's hottest plans to re-score right after a swap
        (``None`` when warming is off or nothing is logged yet)."""
        if self.warm_top_k <= 0:
            return None
        return self.feedback.hottest_plans(
            self.warm_top_k, default_env=self.environment_features
        ) or None

    def _ship_current(self, fleets, warm) -> None:
        """Roll the registry's *current* checkpoint across ``fleets``
        (staged worker-by-worker, warming each shard's caches with the
        same hottest-plans list the in-process swap used)."""
        current = self.registry.current
        if current is None:
            return
        for fleet in fleets:
            fleet.promote(self.registry.root / current.path, warm=warm)

    def _flag_breaker_trip(self, front_end) -> None:
        """A front end's ``on_trip``: the next :meth:`check_drift` reports
        ``retrain=True`` with a ``circuit-breaker-trip`` reason even if the
        feedback log alone looks healthy — a misbehaving incumbent is a
        retrain signal, not just an availability event."""
        version = self.current_version
        suffix = f":v{version.version}" if version is not None else ""
        self.drift_monitor.flag(f"circuit-breaker-trip{suffix}")

    def attach_fleet(self, fleet) -> None:
        """Subscribe a :class:`~repro.fleet.fleet.ServingFleet` to this
        lifecycle, wired as :meth:`serve_through_gateway` wires a gateway:
        the current checkpoint ships immediately (when one exists; boot the
        fleet model-less), every later promotion or rollback is broadcast
        as a staged fleet promote, and a shard's breaker trip flags drift."""
        fleet.on_trip = self._flag_breaker_trip
        self._fleets.append(fleet)
        self._ship_current([fleet], self._warm_list())

    def serve_through_gateway(self, *, breaker=None):
        """Build an :class:`~repro.gateway.gateway.OptimizerGateway` fronting
        this lifecycle's inference service — the entry point concurrent
        callers should use instead of touching :attr:`service` directly.

        The wiring closes the guardrail loop both ways: every
        promotion/rollback hot swap resets the gateway's guard (a new model
        version starts with a clean record), and a breaker *trip* flags the
        drift monitor (:meth:`_flag_breaker_trip`).

        Works before the first promotion too: the gateway answers from the
        native fallback (reason ``"no-model"``) until a model is attached.
        ``breaker`` replaces the gateway's default circuit breaker (e.g. one
        on an injected clock).
        """
        from repro.gateway import OptimizerGateway

        gateway = OptimizerGateway(self._service, breaker=breaker)
        gateway.on_trip = self._flag_breaker_trip
        self._gateways.append(gateway)
        return gateway

    # -- rollout -------------------------------------------------------------

    def bootstrap(
        self,
        predictor,
        *,
        environment_features: tuple[float, float, float, float] | None = None,
        training_fingerprint: str | None = None,
        metrics: dict | None = None,
    ) -> ModelVersion:
        """Promote the very first model without a canary (there is no
        incumbent to compare against; the validation gate that admitted it
        is the caller's responsibility, cf. ``LOAM.validate``)."""
        if self.has_model:
            raise RuntimeError("bootstrap with an incumbent; use submit_candidate")
        entry = self.registry.register(
            predictor,
            environment_features=environment_features,
            training_fingerprint=training_fingerprint,
            metrics=metrics,
            promote=True,
        )
        self._attach(predictor, environment_features)
        self._record(
            "lifecycle-bootstrap",
            "lifecycle",
            version=entry.version,
            weights_version=getattr(predictor, "weights_version", None),
        )
        return entry

    def submit_candidate(
        self,
        predictor,
        *,
        environment_features: tuple[float, float, float, float] | None = None,
        training_fingerprint: str | None = None,
        metrics: dict | None = None,
    ) -> tuple[CanaryReport, ModelVersion | None]:
        """Canary-evaluate ``predictor`` against the incumbent and promote it
        only if the regression gate passes.

        On promotion the candidate's ``weights_version`` is advanced past
        the incumbent's *before* the checkpoint is written, so the manifest
        matches the live counter and both serving-cache tiers invalidate on
        the hot swap.  On rejection the candidate is still registered
        (unpromoted) for audit, and the incumbent keeps serving unchanged.
        """
        if not self.has_model:
            report = CanaryReport(decision="bootstrap")
            entry = self.bootstrap(
                predictor,
                environment_features=environment_features,
                training_fingerprint=training_fingerprint,
                metrics=metrics,
            )
            return report, entry
        report = self.canary.evaluate(predictor, self._predictor, self.feedback)
        self._record(
            "canary-verdict",
            "lifecycle",
            decision=report.decision,
            candidate_q_error=report.candidate_error,
            incumbent_q_error=report.incumbent_error,
            n_holdout=report.n_holdout,
        )
        all_metrics = dict(metrics or {})
        all_metrics.update(
            {
                "canary_decision": report.decision,
                "canary_candidate_q_error": report.candidate_error,
                "canary_incumbent_q_error": report.incumbent_error,
                "canary_n_holdout": report.n_holdout,
            }
        )
        if report.decision == "promote":
            incumbent_version = getattr(self._predictor, "weights_version", 0)
            if getattr(predictor, "weights_version", 0) <= incumbent_version:
                predictor.weights_version = incumbent_version + 1
            entry = self.registry.register(
                predictor,
                environment_features=environment_features,
                training_fingerprint=training_fingerprint,
                metrics=all_metrics,
                promote=True,
            )
            self._attach(predictor, environment_features)
            self._record(
                "lifecycle-promote",
                "lifecycle",
                version=entry.version,
                weights_version=getattr(predictor, "weights_version", None),
            )
            return report, entry
        self.registry.register(
            predictor,
            environment_features=environment_features,
            training_fingerprint=training_fingerprint,
            metrics=all_metrics,
            promote=False,
        )
        self._record("lifecycle-reject", "lifecycle", decision=report.decision)
        return report, None

    def rollback(self) -> ModelVersion:
        """Restore the previously promoted version exactly and serve it."""
        entry = self.registry.rollback()
        predictor, env = self.registry.load(entry.version)
        self._attach(predictor, env)
        self._record("lifecycle-rollback", "lifecycle", version=entry.version)
        return entry

    # -- feedback + drift ----------------------------------------------------

    def observe(
        self,
        plan,
        observed_cost: float,
        *,
        predicted_cost: float | None = None,
        env_features: tuple[float, float, float, float] | None = None,
        day: int = 0,
    ):
        """Record one executed-plan outcome.  ``predicted_cost`` defaults to
        the live model's prediction under ``env_features`` (or the lifecycle's
        stored representative environment)."""
        env = env_features if env_features is not None else self.environment_features
        if predicted_cost is None:
            predicted_cost = float(self.service.predict([plan], env_features=env)[0])
        current = self.registry.current
        return self.feedback.record(
            plan,
            predicted_cost,
            observed_cost,
            env_features=env,
            day=day,
            model_version=current.version if current is not None else 0,
        )

    def check_drift(self) -> DriftReport:
        """Rolling drift statistics over the feedback log; ``retrain=True``
        is the signal to train a candidate and submit it."""
        report = self.drift_monitor.assess(self.feedback)
        if report.retrain:
            self._record(
                "drift-flagged",
                "lifecycle",
                reasons=list(report.reasons),
                recent_q_error=report.recent_q_error,
                baseline_q_error=report.baseline_q_error,
            )
        return report

    def watch(self, executor):
        """Attach the feedback loop to a warehouse executor: every completed
        execution is recorded as an outcome, predicted under the lifecycle's
        representative environment.  Executions before the first promotion
        are skipped (the native cost model is serving; there is no
        prediction to compare against).  Returns the observer callable so
        the caller can ``executor.remove_observer(...)`` it."""

        def _observer(record) -> None:
            if not self.has_model:
                return
            self.observe(record.plan, record.cpu_cost, day=record.day)

        executor.add_observer(_observer)
        return _observer
