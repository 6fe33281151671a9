"""The replay engine: stream a scenario against a live serving target.

``ScenarioRuntime`` grounds a scenario in a concrete project: it builds
the warehouse workload (the same ``ProjectWorkload`` generator every bench
uses), resolves each :class:`~repro.workload.scenarios.FamilySpec` to a
pool of candidate sets (query → ``PlanExplorer`` candidates, with their
noise-free *intrinsic* costs as the steering-benefit oracle), computes the
representative environment e_r, and trains the incumbent model on the
pools' own cost law — so pre-drift q-errors are small by construction and
regime injections are the *only* thing that moves them.

``ReplayEngine`` then fires a materialized stream at a target:

* **logical mode** — sequential, in arrival order.  No wall-clock timing
  enters any decision, so the outcome (chosen plans, costs, lifecycle
  events) is bit-deterministic from the scenario seed: replaying twice
  yields identical ``outcome_digest`` values — the determinism gate.
* **timed mode** — the open-loop harness the pacer bench established:
  caller threads fire each request at its wall-clock arrival time whether
  or not the target kept up, which is what makes sheds, deadlines, and
  p99 measurable.  Timing-dependent, so excluded from determinism claims.

Targets are thin adapters (:class:`GatewayTarget`, :class:`FleetTarget`)
over the two front ends; both return ``GatewayResult`` answers so one
engine drives them.

With a ``ModelLifecycle`` attached, every learned answer's outcome is fed
back (`observe`), drift is checked on a fixed cadence, and a raised flag
drives the full loop *inside the replay*: wait out a post-flag backlog (so
post-drift outcomes dominate the bounded feedback log), train a candidate
on the recent window, canary it, and promote — every step recorded as a
timestamped :class:`ReplayEvent` in the report.  The scenario-matrix
bench gates on exactly one retrain+promote for the ``drift`` scenario and
zero for ``steady``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.gateway.fallback import environment_factor_from_features
from repro.utils import spawn_rng
from repro.workload.scenarios import (
    DEFAULT_FAMILIES,
    FamilySpec,
    Request,
    Scenario,
    ScenarioStream,
)

__all__ = [
    "CandidateSet",
    "ScenarioRuntime",
    "GatewayTarget",
    "FleetTarget",
    "ReplayConfig",
    "ReplayEvent",
    "ReplayReport",
    "ReplayEngine",
    "SegmentStats",
    "build_lifecycle",
]

#: Drift is assessed every this many observations.
DRIFT_CHECK_EVERY = 16
#: Observations between the drift flag and the retrain, so post-drift
#: outcomes fill the bounded feedback log before the canary draws its
#: holdout (see :func:`build_lifecycle`).
RETRAIN_BACKLOG = 160
#: Recent scoreable records the candidate trains on, and its epochs.
RETRAIN_WINDOW = 128
RETRAIN_EPOCHS = 12
#: Observations after a retrain verdict before drift is assessed again —
#: the recent window must refill with post-verdict outcomes, or the same
#: (already-answered) drift re-flags immediately.
ADAPT_COOLDOWN = 96


#: Days of simulated history the scenario project is generated with, and
#: the queries simulated per day.
HISTORY_DAYS = 3
QUERIES_PER_DAY = 30
#: Candidate sets per family pool, and candidate plans per query.
POOL_SIZE = 8
TOP_K = 5
#: The incumbent's training set: light log-normal noise on the pools' own
#: cost law, capped at this many plans.
INCUMBENT_NOISE_SIGMA = 0.05
INCUMBENT_MAX_PLANS = 400
#: Candidate sets, drawn from the ``DEFAULT_FAMILIES`` pools, that the
#: incumbent's baseline q-error is measured over.
BASELINE_Q_SETS = 48
#: Replay lifecycle calibration (see :func:`build_lifecycle`): the feedback
#: log's bound, the drift monitor's window, minimum samples and degradation
#: ratio, and the q-error alarm's headroom over the incumbent's baseline.
FEEDBACK_CAPACITY = 192
DRIFT_WINDOW = 32
DRIFT_MIN_SAMPLES = 24
DEGRADATION_RATIO = 1.5
Q_ERROR_HEADROOM = 2.0


@dataclass(frozen=True)
class CandidateSet:
    """One recurring query's steering decision, frozen for replay: the
    candidate plans, their intrinsic (noise-free oracle) costs, and which
    candidate is the native optimizer's default."""

    key: str
    family: str
    plans: tuple
    true_costs: np.ndarray
    default_index: int

class ScenarioRuntime:
    """Grounds scenarios in one generated project: candidate pools per
    family, the representative environment, the observation cost model,
    and incumbent training."""

    def __init__(self, *, seed: int = 7) -> None:
        from repro.core.explorer import PlanExplorer
        from repro.core.inference import ClusterExpectedEnvironment
        from repro.warehouse.workload import ProjectProfile, generate_project

        self.profile = ProjectProfile(
            name="scenario-rt",
            seed=seed,
            n_tables=12,
            n_templates=10,
            stats_availability=0.2,
            temp_table_ratio=0.25,
            max_join_tables=4,
            row_scale=3e5,
            n_machines=60,
        )
        self._rng = np.random.default_rng(seed)
        self.workload = generate_project(self.profile, horizon_days=HISTORY_DAYS + 5)
        self.workload.simulate_history(HISTORY_DAYS, max_queries_per_day=QUERIES_PER_DAY)
        self.explorer = PlanExplorer(self.workload.optimizer)
        self.env_r = tuple(
            float(v)
            for v in ClusterExpectedEnvironment(
                self.workload.cluster, n_samples=24, ticks_between=30
            ).features()
        )
        self._pools: dict[str, list[CandidateSet]] = {}
        #: Families whose spec matched no template and degraded to the full
        #: template set (visible so a scenario author can fix the spec).
        self.degraded_families: list[str] = []

    # -- candidate pools -------------------------------------------------------

    def pool_for(self, spec: FamilySpec) -> list[CandidateSet]:
        """The family's candidate-set pool (built once, cached)."""
        if spec.name in self._pools:
            return self._pools[spec.name]
        day = spec.build_day if spec.build_day is not None else HISTORY_DAYS - 1
        live, weights = self.workload.live_templates(day)
        matching = [
            (t, w) for t, w in zip(live, weights) if spec.matches(t)
        ]
        if not matching:
            matching = list(zip(live, weights))
            self.degraded_families.append(spec.name)
        templates = [t for t, _ in matching]
        w = np.array([wt for _, wt in matching])
        w = w / w.sum()
        rng = spawn_rng(self._rng, "pool", spec.name)
        pool: list[CandidateSet] = []
        attempts = 0
        max_attempts = 12 * POOL_SIZE
        while len(pool) < POOL_SIZE and attempts < max_attempts:
            attempts += 1
            template = templates[int(rng.choice(len(templates), p=w))]
            query = template.instantiate(
                f"{self.profile.name}-{spec.name}-p{len(pool)}-a{attempts}",
                rng,
                submit_day=day,
            )
            plans = self.explorer.candidates(query, top_k=TOP_K)
            if len(plans) < 2:
                continue
            default_index = next(
                (i for i, p in enumerate(plans) if getattr(p, "is_default", False)), 0
            )
            pool.append(
                CandidateSet(
                    key=f"{spec.name}:{len(pool)}",
                    family=spec.name,
                    plans=tuple(plans),
                    true_costs=np.array(
                        [self.workload.executor.intrinsic_cost(p) for p in plans]
                    ),
                    default_index=default_index,
                )
            )
        if not pool:
            raise RuntimeError(
                f"family {spec.name!r} produced no multi-candidate queries"
            )
        self._pools[spec.name] = pool
        return pool

    def pools(self, families: tuple[FamilySpec, ...]) -> dict[str, list[CandidateSet]]:
        return {spec.name: self.pool_for(spec) for spec in families}

    # -- observation model -----------------------------------------------------

    def observed_cost(self, candidate_set: CandidateSet, chosen: int, request: Request) -> float:
        """Ground-truth execution cost of the chosen plan under the
        request's regime: intrinsic cost × environment factor × the
        regime's drift factor × the request's pre-drawn execution noise."""
        return float(
            candidate_set.true_costs[chosen]
            * environment_factor_from_features(request.env)
            * request.cost_factor
            * request.noise
        )

    # -- incumbent -------------------------------------------------------------

    def train_incumbent(self, *, epochs: int = 6):
        """Train the incumbent on the default families' pools under their
        own cost law (intrinsic × e_r's environment factor, light noise) so
        pre-drift q-errors are small by construction and regimes are the
        only moving part."""
        from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig

        pools = self.pools(DEFAULT_FAMILIES)
        plans = [p for pool in pools.values() for cs in pool for p in cs.plans]
        costs = np.array(
            [
                cs.true_costs[i]
                for pool in pools.values()
                for cs in pool
                for i in range(len(cs.plans))
            ]
        ) * environment_factor_from_features(self.env_r)
        rng = spawn_rng(self._rng, "incumbent")
        sigma = INCUMBENT_NOISE_SIGMA
        costs = costs * np.exp(rng.normal(-0.5 * sigma**2, sigma, size=len(costs)))
        if len(plans) > INCUMBENT_MAX_PLANS:
            keep = rng.choice(len(plans), size=INCUMBENT_MAX_PLANS, replace=False)
            plans = [plans[i] for i in keep]
            costs = costs[keep]
        predictor = AdaptiveCostPredictor(config=PredictorConfig(epochs=epochs))
        predictor.fit(list(plans), costs)
        return predictor

    def baseline_q_error(self, predictor) -> float:
        """Mean q-error of ``predictor`` against the observation model at
        e_r — the calibration the drift thresholds anchor on."""
        from repro.serving.service import CostInferenceService

        pools = self.pools(DEFAULT_FAMILIES)
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        rng = spawn_rng(self._rng, "baseline-q")
        names = sorted(pools)
        qs = []
        for _ in range(BASELINE_Q_SETS):
            pool = pools[names[int(rng.integers(len(names)))]]
            cs = pool[int(rng.integers(len(pool)))]
            predictions = np.asarray(service.predict(list(cs.plans), env_features=self.env_r))
            observed = cs.true_costs * environment_factor_from_features(self.env_r)
            pred = np.maximum(predictions, 1e-9)
            obs = np.maximum(observed, 1e-9)
            qs.append(float(np.mean(np.maximum(pred / obs, obs / pred))))
        return float(np.mean(qs))


def build_lifecycle(runtime: ScenarioRuntime, incumbent, *, registry=None):
    """A ``ModelLifecycle`` calibrated for replay: the absolute q-error
    alarm sits at ``Q_ERROR_HEADROOM ×`` the incumbent's measured baseline
    (floored at 2.5), and the feedback log is bounded tightly enough that
    a post-drift backlog displaces pre-drift records before the canary
    holdout is drawn — without which a genuinely better retrain loses the
    canary to stale history."""
    from repro.lifecycle import CanaryConfig, DriftConfig, FeedbackLog, ModelLifecycle

    baseline = runtime.baseline_q_error(incumbent)
    lifecycle = ModelLifecycle(
        registry,
        feedback=FeedbackLog(capacity=FEEDBACK_CAPACITY),
        drift=DriftConfig(
            window=DRIFT_WINDOW,
            min_samples=DRIFT_MIN_SAMPLES,
            max_q_error=max(2.5, Q_ERROR_HEADROOM * baseline),
            degradation_ratio=DEGRADATION_RATIO,
        ),
        canary=CanaryConfig(holdout_fraction=0.3, min_holdout=8),
    )
    lifecycle.bootstrap(incumbent, environment_features=runtime.env_r)
    return lifecycle


# -- serving targets -----------------------------------------------------------


class GatewayTarget:
    """Drive one ``OptimizerGateway`` (all tenants share it)."""

    name = "gateway"

    def __init__(self, gateway) -> None:
        self.gateway = gateway

    def predict(self, candidate_set: CandidateSet, request: Request, deadline_ms, trace=None):
        return self.gateway.predict(
            list(candidate_set.plans),
            env_features=request.env,
            deadline_ms=deadline_ms,
            trace=trace,
        )


class FleetTarget:
    """Drive a ``ServingFleet``: tenants route to their pinned shards and
    candidate sets ship encode-once via their pool keys."""

    name = "fleet"

    def __init__(self, fleet) -> None:
        self.fleet = fleet

    def predict(self, candidate_set: CandidateSet, request: Request, deadline_ms, trace=None):
        return self.fleet.predict(
            request.tenant,
            list(candidate_set.plans),
            env_features=request.env,
            deadline_ms=deadline_ms,
            plans_key=candidate_set.key,
            trace=trace,
        )


# -- replay bookkeeping --------------------------------------------------------


@dataclass
class SegmentStats:
    """Per-regime-segment outcome tally."""

    label: str
    requests: int = 0
    learned: int = 0
    fallback: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    benefit_sum: float = 0.0
    benefit_n: int = 0
    retry_after_sum: float = 0.0
    retry_after_n: int = 0

    def record(self, result, latency_seconds: float, benefit: float | None) -> None:
        self.requests += 1
        if result.source == "learned":
            self.learned += 1
        else:
            self.fallback += 1
            self.reasons[result.reason] = self.reasons.get(result.reason, 0) + 1
        self.latencies.append(latency_seconds)
        if benefit is not None:
            self.benefit_sum += benefit
            self.benefit_n += 1
        retry_after = getattr(result, "retry_after", None)
        if retry_after is not None:
            self.retry_after_sum += float(retry_after)
            self.retry_after_n += 1

    def _quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[int(q * (len(ordered) - 1))]

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "learned": self.learned,
            "fallback": self.fallback,
            "shed_reasons": dict(self.reasons),
            "learned_rate": self.learned / self.requests if self.requests else 0.0,
            "p50_ms": 1e3 * self._quantile(0.50),
            "p99_ms": 1e3 * self._quantile(0.99),
            "mean_steering_benefit": (
                self.benefit_sum / self.benefit_n if self.benefit_n else 0.0
            ),
            "mean_retry_after_seconds": (
                self.retry_after_sum / self.retry_after_n if self.retry_after_n else None
            ),
        }


@dataclass(frozen=True)
class ReplayEvent:
    """One lifecycle-visible replay event (drift flag, retrain verdict)."""

    kind: str  # "drift-flagged" | "promoted" | "rejected"
    at: float  # scenario seconds (the request's arrival time)
    index: int  # request index the event fired after
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": float(self.at),
            "index": int(self.index),
            "detail": self.detail,
        }


@dataclass
class ReplayReport:
    """Everything one replay produced, JSON-able for bench artifacts."""

    scenario: str
    target: str
    mode: str
    n_requests: int
    wall_seconds: float
    segments: dict[str, dict]
    events: list[ReplayEvent]
    retrains: int
    promotes: int
    stream_digest: str
    outcome_digest: str

    def overall(self) -> dict:
        """Totals across segments (requests, learned, sheds by reason)."""
        out: dict = {"requests": 0, "learned": 0, "fallback": 0, "shed_reasons": {}}
        for seg in self.segments.values():
            out["requests"] += seg["requests"]
            out["learned"] += seg["learned"]
            out["fallback"] += seg["fallback"]
            for reason, count in seg["shed_reasons"].items():
                out["shed_reasons"][reason] = (
                    out["shed_reasons"].get(reason, 0) + count
                )
        return out

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "target": self.target,
            "mode": self.mode,
            "n_requests": self.n_requests,
            "wall_seconds": self.wall_seconds,
            "segments": self.segments,
            "events": [e.as_dict() for e in self.events],
            "retrains": self.retrains,
            "promotes": self.promotes,
            "stream_digest": self.stream_digest,
            "outcome_digest": self.outcome_digest,
            "overall": self.overall(),
        }


@dataclass(frozen=True)
class ReplayConfig:
    """Replay-engine knobs (the adaptation cadence is this module's
    constants, documented in docs/SCENARIOS.md)."""

    mode: str = "logical"  # "logical" | "timed"
    #: Timed mode: caller threads servicing the open-loop schedule.
    threads: int = 12
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("logical", "timed"):
            raise ValueError(f"mode must be 'logical' or 'timed', got {self.mode!r}")


class ReplayEngine:
    """Stream scenarios at serving targets; close the lifecycle loop."""

    def __init__(
        self,
        runtime: ScenarioRuntime,
        *,
        lifecycle=None,
        config: ReplayConfig | None = None,
        tracer=None,
    ) -> None:
        self.runtime = runtime
        self.lifecycle = lifecycle
        self.config = config or ReplayConfig()
        #: Optional :class:`repro.obs.Tracer`: every fired request gets a
        #: ``replay.request`` root span whose context rides ``trace=`` into
        #: the target (a traced gateway or fleet joins it).  Under a
        #: *seeded* tracer in logical mode the request order is
        #: deterministic, so trace/span ids are too —
        #: replaying twice yields identical ids, and a trace id from a
        #: previous run can be looked up again.
        self.tracer = tracer
        self._lifecycle_lock = threading.Lock()

    # -- public API ------------------------------------------------------------

    def run(self, scenario: Scenario, target) -> ReplayReport:
        pools = self.runtime.pools(scenario.families)
        stream = scenario.stream(
            {name: len(pool) for name, pool in pools.items()}, env=self.runtime.env_r
        )
        segments = {
            label: SegmentStats(label) for label, _, _ in stream.segments()
        }
        state = _ReplayState()
        started = time.perf_counter()
        if self.config.mode == "logical":
            outcomes = self._run_logical(stream, pools, target, segments, state)
        else:
            outcomes = self._run_timed(stream, pools, target, segments, state)
        wall = time.perf_counter() - started
        return ReplayReport(
            scenario=scenario.name,
            target=target.name,
            mode=self.config.mode,
            n_requests=len(stream),
            wall_seconds=wall,
            segments={label: seg.as_dict() for label, seg in segments.items()},
            events=state.events,
            retrains=state.retrains,
            promotes=state.promotes,
            stream_digest=stream.digest(),
            outcome_digest=_outcome_digest(outcomes, state.events),
        )

    # -- modes -----------------------------------------------------------------

    def _run_logical(self, stream, pools, target, segments, state) -> list[tuple]:
        return [
            self._fire(request, pools, target, segments, state)
            for request in stream.requests
        ]

    def _run_timed(self, stream, pools, target, segments, state) -> list[tuple]:
        requests = stream.requests
        n = len(requests)
        outcomes: list = [None] * n
        cursor = {"i": 0}
        lock = threading.Lock()
        seg_lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def caller() -> None:
            while True:
                with lock:
                    i = cursor["i"]
                    if i >= n:
                        return
                    cursor["i"] = i + 1
                request = requests[i]
                # Scenario seconds are wall seconds.
                wait = start + request.t - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                outcomes[i] = self._fire(
                    request, pools, target, segments, state, seg_lock=seg_lock
                )

        threads = [
            threading.Thread(target=caller, name=f"replay-{i}")
            for i in range(self.config.threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return outcomes

    # -- one request -----------------------------------------------------------

    def _fire(self, request, pools, target, segments, state, *, seg_lock=None):
        candidate_set = pools[request.family][request.pool_index]
        span = None
        trace = None
        if self.tracer is not None:
            span = self.tracer.start_trace(
                "replay.request",
                attrs={
                    "family": request.family,
                    "tenant": request.tenant,
                    "segment": request.segment,
                    "index": request.index,
                },
            )
            trace = span.context if span.sampled else None
        t0 = time.perf_counter()
        try:
            result = target.predict(
                candidate_set, request, self.config.deadline_ms, trace=trace
            )
        except BaseException:
            if span is not None:
                span.set_attr("error", True)
                span.finish()
            raise
        latency = time.perf_counter() - t0
        if span is not None:
            span.set_attrs(source=result.source, reason=result.reason)
            span.finish()
        chosen = int(np.argmin(np.asarray(result.costs)))
        true = candidate_set.true_costs
        benefit = float(
            (true[candidate_set.default_index] - true[chosen])
            / max(true[candidate_set.default_index], 1e-9)
        )
        segment = segments.setdefault(request.segment, SegmentStats(request.segment))
        if seg_lock is not None:
            with seg_lock:
                segment.record(result, latency, benefit)
        else:
            segment.record(result, latency, benefit)
        # Only learned answers feed the lifecycle: a fallback answer's
        # "prediction" is the native cost scale, which poisons the drift
        # monitor's q-error with apples-to-oranges pairs.
        if self.lifecycle is not None and result.source == "learned":
            with self._lifecycle_lock:
                self._observe(request, candidate_set, chosen, result, state)
        return (
            request.index,
            chosen,
            result.source,
            result.reason,
            np.asarray(result.costs, dtype=np.float64).tobytes(),
        )

    # -- lifecycle loop --------------------------------------------------------

    def _observe(self, request, candidate_set, chosen, result, state) -> None:
        observed = self.runtime.observed_cost(candidate_set, chosen, request)
        self.lifecycle.observe(
            candidate_set.plans[chosen],
            observed,
            predicted_cost=float(np.asarray(result.costs)[chosen]),
            env_features=request.env,
            day=request.day,
        )
        state.observations += 1
        if state.pending_since is None:
            if (
                state.observations >= state.cooldown_until
                and state.observations % DRIFT_CHECK_EVERY == 0
            ):
                report = self.lifecycle.check_drift()
                if report.retrain:
                    state.pending_since = state.observations
                    state.events.append(
                        ReplayEvent(
                            kind="drift-flagged",
                            at=request.t,
                            index=request.index,
                            detail=",".join(report.reasons),
                        )
                    )
        elif state.observations - state.pending_since >= RETRAIN_BACKLOG:
            self._retrain(request, state)

    def _retrain(self, request, state) -> None:
        from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig

        records = self.lifecycle.feedback.scoreable()[-RETRAIN_WINDOW:]
        candidate = AdaptiveCostPredictor(config=PredictorConfig(epochs=RETRAIN_EPOCHS))
        candidate.fit(
            [r.plan for r in records], [r.observed_cost for r in records]
        )
        report, entry = self.lifecycle.submit_candidate(
            candidate,
            environment_features=request.env,
            metrics={"trigger": "scenario-replay", "at": float(request.t)},
        )
        state.retrains += 1
        if entry is not None:
            state.promotes += 1
            state.events.append(
                ReplayEvent(
                    kind="promoted",
                    at=request.t,
                    index=request.index,
                    detail=f"v{entry.version} weights_version={entry.weights_version}",
                )
            )
        else:
            state.events.append(
                ReplayEvent(
                    kind="rejected",
                    at=request.t,
                    index=request.index,
                    detail=report.summary(),
                )
            )
        state.pending_since = None
        state.cooldown_until = state.observations + ADAPT_COOLDOWN


@dataclass
class _ReplayState:
    """Mutable adaptation state threaded through one replay run."""

    observations: int = 0
    pending_since: int | None = None
    cooldown_until: int = 0
    retrains: int = 0
    promotes: int = 0
    events: list[ReplayEvent] = field(default_factory=list)


def _outcome_digest(outcomes: list[tuple], events: list[ReplayEvent]) -> str:
    """Bit-stable identity of a replay's decisions: per-request chosen
    index, source/reason, and exact cost bytes, plus the lifecycle event
    sequence.  Wall-clock latencies are deliberately excluded."""
    h = hashlib.sha256()
    for outcome in outcomes:
        if outcome is None:
            continue
        index, chosen, source, reason, cost_bytes = outcome
        h.update(f"{index}|{chosen}|{source}|{reason}|".encode())
        h.update(cost_bytes)
        h.update(b"\n")
    for event in events:
        h.update(f"E|{event.kind}|{event.index}|{event.detail}\n".encode())
    return h.hexdigest()
