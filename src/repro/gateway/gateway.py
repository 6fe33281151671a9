"""The optimizer gateway: a concurrent, deadline-bounded serving front end.

:class:`~repro.serving.service.CostInferenceService` is a deliberately
single-threaded fast path (its batch buffers are recycled per request).
Production steering traffic is the opposite shape: many query compilers
asking concurrently, each inside its own optimizer latency budget, against
a learned model that can be slow, broken, or mid-replacement.  The
:class:`OptimizerGateway` closes that gap:

* **admission control** — a bounded request queue; when it is full the
  request is *shed* and answered from the fallback immediately instead of
  growing an unbounded backlog;
* **micro-batch coalescing** — one worker thread drains the queue, merging
  the compatible requests already queued (same environment override) into
  a single learned batch, so concurrent callers ride the
  serving layer's size-bucketed batching instead of serializing one
  candidate set at a time;
* **deadline budgets** — every request carries a deadline; a caller whose
  budget expires answers from the fallback *immediately* (it never blocks
  on the learned path), and the miss is recorded against the breaker as a
  slow call;
* **circuit breaker** — per served model version (reset on every
  :meth:`~OptimizerGateway.swap_predictor`): repeated errors or deadline
  misses trip it, open state answers straight from the fallback without
  queueing, and a half-open probe sequence decides recovery
  (:mod:`repro.gateway.breaker`);
* **deterministic fallback** — the statistics-free native cost model
  (:mod:`repro.gateway.fallback`); every response is flagged with its
  source and reason, so callers and dashboards can tell a learned answer
  from a guardrail answer;
* **telemetry** — counters, gauges, and latency histograms for every
  decision point, exported as a JSON-able snapshot
  (:mod:`repro.gateway.telemetry`), including the inference service's
  cache-tier hit/miss/eviction counters.

Every request is answered with a cost vector, whatever happens to the
learned path — the gateway's one invariant.  :class:`Guard` and
:class:`AnswerPath` are the part of it the fleet parent
(:class:`~repro.fleet.fleet.ServingFleet`) shares: one request path,
:meth:`AnswerPath.answer`, over each front end's own routing and scoring.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.gateway.breaker import CircuitBreaker
from repro.gateway.fallback import NativeCostFallback
from repro.gateway.telemetry import Telemetry
from repro.obs.trace import NULL_SPAN, activate_span
from repro.pacing import AdmissionPacer

__all__ = ["GatewayClosedError", "GatewayConfig", "GatewayResult", "OptimizerGateway"]


class GatewayClosedError(RuntimeError):
    """Marks a request that was drained because the gateway shut down; the
    waiting caller answers it from the fallback with reason ``"closed"``."""

#: Pending requests admitted before load shedding kicks in.
MAX_QUEUE_DEPTH = 64

#: Breaker-state gauge encoding (``breaker_state`` telemetry gauge; the
#: fleet parent's ``breaker_shard_<k>_state``).
BREAKER_STATE_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


class Guard:
    """One learned path's admission policy, its :class:`CircuitBreaker` then
    its optional :class:`~repro.pacing.AdmissionPacer`: C3's hand-back to
    the native optimizer, written once.  A gateway holds one, the fleet
    parent one per shard; each settles what it scored (the gateway per
    coalesced batch, the fleet per exchange).  ``on_trip`` becomes the
    breaker's trip hook; ``gauge`` names its state gauge."""

    __slots__ = ("breaker", "pacer")

    def __init__(
        self, telemetry: Telemetry, breaker=None, pacer=None, *, gauge="breaker_state",
        on_trip=None,
    ) -> None:
        self.breaker = breaker or CircuitBreaker()
        self.breaker.on_trip = on_trip
        self.pacer = pacer
        if pacer is not None and pacer.telemetry is None:
            pacer.attach(telemetry)
        telemetry.add_collector(
            lambda: telemetry.gauge(gauge).set(BREAKER_STATE_CODES[self.breaker.state])
        )

    def admit(self) -> tuple[str, float | None] | None:
        """``None`` when the request may take the learned path (holding a
        half-open probe, if the breaker is probing, and a pacer slot), else
        ``(reason, retry_after)``.  A full pipe refuses with the pacer's
        Retry-After eta and takes no probe: queueing would only buy the
        request latency, not an answer in budget."""
        if not self.breaker.allow():
            return "circuit-open", None
        if self.pacer is not None and not self.pacer.try_admit():
            self.breaker.release_probe()
            return "pacer-limit", self.pacer.next_admit_eta()
        return None

    def refund(self) -> None:
        """Hand back the probe and the pacer slot of an admitted request
        that was never scored (refused after admission, a shard lost
        mid-request)."""
        self.breaker.release_probe()
        if self.pacer is not None:
            self.pacer.release()

    def reset(self) -> None:
        """The path serves a new model (a hot swap or a promote): the
        breaker closes and the pacer re-probes from STARTUP, as BBR does
        after a route change, since the old record and capacity estimates
        describe a model that is gone.  Nothing else resets: a half-open
        recovery or a trip leaves the same model behind the path."""
        self.breaker.reset()
        if self.pacer is not None:
            self.pacer.reset()

    def stats(self) -> dict:
        """``{"breaker": ..., "pacer": ...}`` (no ``pacer`` when unpaced)."""
        out = {"breaker": self.breaker.stats()}
        if self.pacer is not None:
            out["pacer"] = self.pacer.stats()
        return out


@dataclass(frozen=True)
class GatewayConfig:
    """Operating limits of the serving front end."""

    #: Upper bound on plans merged into one learned batch.  The worker
    #: merges only what is already queued: concurrent bursts still merge,
    #: because requests pile up while the previous batch executes.
    max_coalesce_plans: int = 256


class GatewayResult:
    """One answered request: a cost vector plus how it was produced.
    :func:`repro.core.decision.choose` turns ``costs`` into a plan."""

    __slots__ = (
        "costs", "source", "reason", "latency_ms", "model_version", "retry_after",
        "trace_id",
    )

    def __init__(
        self,
        costs: np.ndarray,
        source: str,
        reason: str,
        latency_ms: float,
        model_version: int | None,
        *,
        retry_after: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.costs = costs
        self.source = source  # "learned" | "fallback"
        self.reason = reason  # "ok" | "no-model" | "shed" | "deadline" | ...
        self.latency_ms = latency_ms
        self.model_version = model_version
        #: ``pacer-limit`` sheds only: the pacer's estimate of seconds until
        #: an admission would succeed (HTTP Retry-After analogue).  ``None``
        #: everywhere else, and on sheds from an unmeasured pacer.
        self.retry_after = retry_after
        #: Id of the distributed trace this request was sampled into, or
        #: ``None`` when tracing is off/unsampled.  Feed it to the owning
        #: fleet's ``span_tree`` to reconstruct the request end to end.
        self.trace_id = trace_id

    def __repr__(self) -> str:
        return (
            f"GatewayResult({self.source}/{self.reason}, n={len(self.costs)}, "
            f"latency={self.latency_ms:.2f}ms)"
        )


class _Latch:
    """One-shot hand-off from the worker to the one caller waiting on a
    request: a lock created held, released by :meth:`set`.  Does what the
    gateway used of ``threading.Event`` at a third of its cost (an Event is
    a Condition, a lock and a fresh waiter lock per wait)."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        """Wake the waiter; harmless when already set."""
        try:
            self._lock.release()
        except RuntimeError:
            pass

    def wait(self, timeout: float | None = None) -> bool:
        """Block until set or ``timeout`` seconds passed; ``True`` when set."""
        return self._lock.acquire(timeout=-1 if timeout is None else timeout)


class _PendingRequest:
    """One caller's unit of work, parked on the queue until the worker
    batches it (or the caller's deadline abandons it)."""

    __slots__ = (
        "plans", "env_features", "env_key", "enqueued_at",
        "event", "result", "version", "error", "abandoned", "done", "paced", "span",
    )

    def __init__(self, plans, env_features, env_key, now) -> None:
        self.plans = plans
        self.env_features = env_features
        self.env_key = env_key
        self.enqueued_at = now
        #: The waiting caller's latch.
        self.event = _Latch()
        self.result: np.ndarray | None = None
        #: The served ``weights_version`` that computed ``result``, read
        #: under the service lock the batch ran under.
        self.version: int | None = None
        self.error: BaseException | None = None
        self.abandoned = False
        self.done = False
        #: True while this request holds one of the admission pacer's
        #: inflight slots (cleared exactly once, under the gateway lock).
        self.paced = False
        #: The request's trace span (NULL_SPAN when unsampled); the worker
        #: reads it to parent the batch span.
        self.span = NULL_SPAN


#: Fallback reasons that are *shed* decisions (load-based refusals of a
#: healthy path), mapped onto the telemetry split in
#: :data:`repro.gateway.telemetry.SHED_REASONS`.  ``no-model`` /
#: ``circuit-open`` / ``model-error`` / ``worker-crash`` are health events,
#: not sheds.
_SHED_REASONS = {
    "shed": "queue-full",
    "pacer-limit": "pacer-limit",
    "deadline": "deadline",
    "closed": "closed",
}


def mirror_service_gauges(telemetry: Telemetry, service) -> None:
    """Mirror ``service``'s served ``weights_version`` and cache counters
    into ``telemetry``'s gauges: a collector's work, run when telemetry is
    read (a gateway's, and a fleet shard's)."""
    version = getattr(service, "weights_version", None)
    if version is not None:
        telemetry.gauge("model_weights_version").set(version)
    counters = getattr(service, "cache_counters", None)
    if counters is not None:
        # Cache hit/miss and request tallies, and the cold-path split
        # (encode/forward seconds, warmed plans).
        for name, value in counters().items():
            telemetry.gauge(f"serving_{name}").set(value)


class AnswerPath:
    """The answer path both front ends run — :class:`OptimizerGateway` and
    the fleet parent.  :meth:`answer` counts a request, opens its span,
    routes it, answers a refusal from the native fallback and records every
    answer the same way, so a request leaves one audit trail whichever
    front end answered it.  A front end provides ``_route(tenant, span)``,
    the scorer (an object with a :class:`Guard` ``guard``, ``has_model``
    and ``model_version``) or the reason there is none, and
    ``_score(scorer, plans, env_features, plans_key, span, until)``, which
    scores an admitted request within ``until`` (monotonic seconds, or
    ``None``), settles the guard and returns ``(costs, model_version)`` or
    a fallback reason.

    Observability is optional and ~free when absent: a
    :class:`repro.obs.Tracer` minting request spans and a
    :class:`repro.obs.FlightRecorder` fed incident events (sheds feed its
    storm detector).
    """

    #: The front end's name in replay reports.
    name = "gateway"
    #: Name of the span one request opens.
    span_name = "gateway.request"
    #: Called with this front end after any of its breakers trips: the
    #: lifecycle sets it (``serve_through_gateway``, ``attach_fleet``) so a
    #: misbehaving model is a retrain signal, not just an availability event.
    on_trip = None

    def __init__(self, telemetry: Telemetry, *, fallback=None, tracer=None, recorder=None) -> None:
        self.telemetry = telemetry
        self.fallback = fallback or NativeCostFallback()
        self.tracer = tracer
        self.recorder = recorder
        self._requests_total = telemetry.counter("requests_total")
        self._learned_total = telemetry.counter("learned_total")
        self._request_latency = telemetry.histogram("request_latency_seconds")

    def answer(
        self, tenant, plans, *, env_features=None, deadline_ms: float | None = None,
        plans_key=None, trace=None,
    ) -> GatewayResult:
        """Score ``plans`` within the deadline budget.  Always returns a
        cost per plan; ``result.source`` says whether the learned model or
        the native fallback produced it.  ``tenant`` routes the request and
        a stable ``plans_key`` per candidate set ships its plan trees once
        per shard (both fleet-only); ``trace`` carries an upstream
        :class:`~repro.obs.TraceContext` so the request span joins the
        caller's trace instead of starting one."""
        started = time.monotonic()
        plans = list(plans)
        span = self._open(trace, len(plans))
        scorer = self._route(tenant, span)
        pacer = retry_after = shed_reason = None
        if isinstance(scorer, str):
            outcome = scorer
        else:
            pacer = scorer.guard.pacer
            if not plans:
                outcome = np.zeros(0), scorer.model_version
            elif not scorer.has_model:
                outcome = "no-model"
            else:
                refused = scorer.guard.admit()
                if refused is None:
                    until = started + deadline_ms / 1e3 if deadline_ms is not None else None
                    outcome = self._score(scorer, plans, env_features, plans_key, span, until)
                else:
                    outcome, retry_after = refused
        if isinstance(outcome, str):
            source, reason, version = "fallback", outcome, None
            costs = self.fallback.predict(plans, env_features=env_features)
            t = self.telemetry
            t.counter("fallback_total").inc()
            t.counter(f"fallback_{reason.replace('-', '_')}_total").inc()
            if reason == "deadline":
                t.counter("deadline_miss_total").inc()
            shed_reason = _SHED_REASONS.get(reason)
            if shed_reason is not None:
                t.record_shed(shed_reason)
                if self.recorder is not None:
                    self.recorder.note_shed(shed_reason)
            if retry_after is not None:
                # The Retry-After hints attached to pacer-limit sheds.
                t.histogram("retry_after_seconds").observe(float(retry_after))
        else:
            (costs, version), source, reason = outcome, "learned", "ok"
            self._learned_total.inc()
        elapsed = time.monotonic() - started
        self._request_latency.observe(elapsed)
        result = GatewayResult(
            costs, source, reason, 1e3 * elapsed, version, retry_after=retry_after
        )
        if span.sampled:
            span.set_attrs(source=source, reason=reason, weights_version=version)
            if shed_reason is not None:
                span.set_attr("shed_reason", shed_reason)
            if retry_after is not None:
                span.set_attr("retry_after", retry_after)
            if pacer is not None:  # the scorer's; none if the request was never routed
                span.set_attr("pacer_state", pacer.state)
            result.trace_id = span.trace_id
            span.finish()
        return result

    def _open(self, trace, n_plans: int):
        """Count one request and open its span (joining ``trace``, an
        upstream :class:`~repro.obs.TraceContext`, when given)."""
        self._requests_total.inc()
        if self.tracer is None:
            return NULL_SPAN
        span = self.tracer.start_trace(self.span_name, parent=trace)
        if span.sampled:
            span.set_attr("n_plans", n_plans)
        return span

    def _tripped(self, where: str, breaker, **attrs) -> None:
        """A breaker trip: count it, record it as an incident (the recorder
        snapshots its ring so the spans and sheds leading up to the trip
        survive for reconstruction) and hand it to :attr:`on_trip`.
        ``where`` names the breaker's path (``"gateway"``, or the fleet
        shard it guards)."""
        self.telemetry.counter("breaker_trips_total").inc()
        if self.recorder is not None:
            breaker_stats = breaker.stats()
            self.recorder.record(
                "breaker-trip",
                where,
                trip_count=breaker_stats["trip_count"],
                failure_count=breaker_stats["failure_count"],
                slow_count=breaker_stats["slow_count"],
                **attrs,
            )
        if self.on_trip is not None:
            self.on_trip(self)

    def _obs_stats(self, out: dict) -> dict:
        """Add the configured tracer's and flight recorder's snapshots to a
        ``stats()`` dict."""
        if self.tracer is not None:
            out["tracing"] = self.tracer.stats()
        if self.recorder is not None:
            out["flight_recorder"] = self.recorder.stats()
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class OptimizerGateway(AnswerPath):
    """Concurrent serving front end over one inference service.

    ``service`` may be ``None`` (a project before its first promoted model):
    every request answers from the fallback with reason ``"no-model"`` until
    :meth:`attach_service` installs the learned path.  ``service`` is
    duck-typed — it must expose ``predict(plans, env_features=...)`` and may
    expose ``cache_counters`` and the served ``weights_version``.
    """

    def __init__(
        self,
        service=None,
        *,
        fallback: NativeCostFallback | None = None,
        config: GatewayConfig | None = None,
        breaker: CircuitBreaker | None = None,
        telemetry: Telemetry | None = None,
        pacer: AdmissionPacer | None = None,
        tracer=None,
        recorder=None,
    ) -> None:
        super().__init__(
            telemetry or Telemetry(), fallback=fallback, tracer=tracer, recorder=recorder
        )
        self.config = config or GatewayConfig()
        # The instruments every learned request updates, resolved once.
        t = self.telemetry
        self._batches_total = t.counter("batches_total")
        # A request's wait from admission to worker pickup; its batch's
        # execution time (service_time) is the other half of its latency.
        self._queue_wait = t.histogram("queue_wait_seconds")
        self._learned_batch = t.histogram("learned_batch_seconds")
        self._batch_plans = t.histogram("batch_plans")
        self._service_time = t.histogram("service_time_seconds")
        #: The breaker and, when given, BBR-style admission pacer
        #: (:mod:`repro.pacing`) of the learned path; ``breaker`` and
        #: ``pacer`` name its parts.
        self.guard = Guard(
            self.telemetry, breaker, pacer,
            on_trip=lambda b: self._tripped("gateway", b, weights_version=self.model_version),
        )
        self.breaker, self.pacer = self.guard.breaker, pacer
        self._lock = threading.Lock()
        self._queue: deque[_PendingRequest] = deque()
        # The idle worker parks by acquiring ``_wake``, which is held
        # whenever the worker is not being woken; a producer that finds it
        # parked (under ``_lock``) releases it, once.  Unlike
        # ``Condition.wait`` a park allocates nothing.
        self._wake = threading.Lock()
        self._wake.acquire()
        self._parked = False
        #: Requests the worker thread holds but has not yet answered —
        #: tracked so :meth:`close` can fail them over to the fallback if
        #: the learned path is stuck.
        self._inflight: set[_PendingRequest] = set()
        self._service = service
        self._service_lock = threading.Lock()
        self._running = True
        # Gauges mirroring the service are set when telemetry is read, not
        # once per batch.
        self.telemetry.add_collector(self._sync_gauges)
        self._worker = threading.Thread(
            target=self._worker_loop, name="optimizer-gateway", daemon=True
        )
        self._worker.start()

    # -- service management ----------------------------------------------------

    @property
    def has_model(self) -> bool:
        return self._service is not None

    def attach_service(self, service) -> None:
        """Install (or replace) the learned path; resets the guard."""
        with self._service_lock:
            self._service = service
        self._new_model()

    def swap_predictor(self, predictor, *, warm=None) -> None:
        """Hot-swap the model behind the attached service (the lifecycle's
        promote path) under the lock the worker scores under, so the swap
        and its ``warm`` pass never land beneath a batch still computing;
        then reset the guard."""
        with self._service_lock:
            self._service.swap_predictor(predictor, warm=warm)
        self._new_model()

    def _new_model(self) -> None:
        """A new model serves behind the path: a reset guard, fresh gauges."""
        self.guard.reset()
        self.telemetry.counter("swaps_total").inc()
        self._sync_gauges()

    @property
    def model_version(self) -> int | None:
        service = self._service
        if service is None:
            return None
        return getattr(service, "weights_version", None)

    # -- request path ----------------------------------------------------------

    def predict(
        self,
        plans,
        *,
        env_features: tuple[float, float, float, float] | None = None,
        deadline_ms: float | None = None,
        trace=None,
    ) -> GatewayResult:
        """:meth:`~AnswerPath.answer` for the one tenant a gateway serves."""
        return self.answer(
            None, plans, env_features=env_features, deadline_ms=deadline_ms, trace=trace
        )

    def _route(self, tenant, span):
        """Every request goes to the gateway's own learned path."""
        return self

    def _score(self, scorer, plans, env_features, plans_key, span, until):
        """Queue the request for the coalescing worker and wait for its
        batch until ``until``; the worker settles the guard per batch."""
        env_key = (
            tuple(float(v) for v in env_features) if env_features is not None else None
        )
        request = _PendingRequest(plans, env_features, env_key, time.monotonic())
        request.paced = self.pacer is not None
        request.span = span
        refused = None
        with self._lock:
            if not self._running:
                refused = "closed"
            elif len(self._queue) >= MAX_QUEUE_DEPTH:
                refused = "shed"
            else:
                self._queue.append(request)
                self._unpark_locked()
        if refused is not None:
            # Admitted, but the worker will not take it.
            self.guard.refund()
            return refused

        if until is None:
            done = request.event.wait()
        else:
            timeout = until - time.monotonic()
            # A budget already exhausted by admission does not wait at all.
            done = timeout > 0 and request.event.wait(timeout)
        if not done:
            # The answer may still have landed since the wait gave up; the
            # lock decides between it and abandoning the request.
            with self._lock:
                done = request.done
                if not done:
                    request.abandoned = True
        if not done:
            return "deadline"
        # Marked done by _execute, or by a close() drain.
        error = request.error
        if error is None:
            return request.result, request.version
        return "closed" if isinstance(error, GatewayClosedError) else "model-error"

    # -- worker ----------------------------------------------------------------

    def _pacer_release(self, request: _PendingRequest) -> None:
        """Return the request's pacer slot without a delivery sample — for
        queued requests the worker skips (abandoned, or answered by a
        close() drain).  Idempotent: the ``paced`` flag is cleared exactly
        once under the gateway lock."""
        if self.pacer is None:
            return
        with self._lock:
            if not request.paced:
                return
            request.paced = False
        self.pacer.release()

    def _unpark_locked(self) -> None:
        """Wake the worker if it is parked (caller holds ``_lock``)."""
        if self._parked:
            self._parked = False
            self._wake.release()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    if not self._running:
                        return
                    self._parked = True
                    first = None
                else:
                    first = self._popleft_locked()
                    if first.done:
                        # Already answered by a concurrent close() drain.
                        continue
                    abandoned_early = first.abandoned
                    if not abandoned_early:
                        self._inflight.add(first)
            if first is None:
                # Park until a producer or close() releases the lock; a
                # release that landed first makes this return at once.
                self._wake.acquire()
                continue
            if abandoned_early:
                # The caller already answered from the fallback; the learned
                # path failed to schedule it in budget — a slow call.
                self._pacer_release(first)
                self.breaker.record_failure(kind="slow")
                continue
            self._execute(self._coalesce(first))

    def _popleft_locked(self) -> _PendingRequest:
        """Pop the queue head and record its admission-to-pickup wait, the
        queueing half of request latency (the other half, the learned batch
        compute, is ``service_time``) — for every popped request, including
        abandoned ones, whose queue wait is exactly what blew their budget."""
        request = self._queue.popleft()
        self._queue_wait.observe(time.monotonic() - request.enqueued_at)
        return request

    def _coalesce(self, first: _PendingRequest) -> list[_PendingRequest]:
        """Merge the requests already queued behind ``first`` with the same
        environment key into one learned batch."""
        group = [first]
        total = len(first.plans)
        while total < self.config.max_coalesce_plans:
            with self._lock:
                if not self._queue:
                    break
                nxt = self._queue[0]
                if nxt.env_key != first.env_key:
                    break
                if total + len(nxt.plans) > self.config.max_coalesce_plans:
                    break
                self._popleft_locked()
                drained = nxt.done  # answered by a concurrent close() drain
                skipped = drained or nxt.abandoned
                if not skipped:
                    self._inflight.add(nxt)
            if skipped:
                self._pacer_release(nxt)
                if not drained:
                    self.breaker.record_failure(kind="slow")
                continue
            group.append(nxt)
            total += len(nxt.plans)
        return group

    def _execute(self, group: list[_PendingRequest]) -> None:
        all_plans = [plan for request in group for plan in request.plans]
        env_features = group[0].env_features
        batch_span = NULL_SPAN
        if self.tracer is not None:
            # The batch span lives in the first sampled request's trace and
            # *links* every coalesced request (their ids ride as attributes;
            # each linked request span points back via batch_span_id).
            primary = next((r.span for r in group if r.span.sampled), None)
            if primary is not None:
                batch_span = self.tracer.start_span(
                    "gateway.batch",
                    parent=primary,
                    attrs={
                        "n_requests": len(group),
                        "n_plans": len(all_plans),
                        "link_trace_ids": [
                            r.span.trace_id for r in group if r.span.sampled
                        ],
                        "link_span_ids": [
                            r.span.span_id for r in group if r.span.sampled
                        ],
                    },
                )
        started = time.monotonic()
        error: BaseException | None = None
        predictions: np.ndarray | None = None
        version: int | None = None
        try:
            # The version is read under the lock the batch ran under: a
            # promote waiting on it must not relabel these costs.
            if batch_span.sampled:
                # Activate so the serving layer's traced_sections (encode /
                # forward) nest under this batch.
                with self._service_lock, activate_span(batch_span):
                    predictions = self._service.predict(
                        all_plans, env_features=env_features
                    )
                    version = self.model_version
            else:
                with self._service_lock:
                    predictions = self._service.predict(
                        all_plans, env_features=env_features
                    )
                    version = self.model_version
        except BaseException as exc:  # noqa: BLE001 — every failure must answer
            error = exc
        elapsed = time.monotonic() - started
        if batch_span.sampled:
            if error is not None:
                batch_span.set_attr("error", repr(error))
            # Finish before any caller's event fires: a caller that drains
            # spans for its trace right after predict() returns finds the
            # batch (and nested serving) spans already buffered.
            batch_span.finish()
        self._batches_total.inc()
        self._learned_batch.observe(elapsed)
        self._batch_plans.observe(len(all_plans))

        # Answer every caller under one acquisition of the gateway lock; the
        # breaker hears the outcomes, in the same order, once it is released
        # (a trip hook may call back into the gateway).
        offset = 0
        slots = 0
        verdicts: list[str | None] = []
        with self._lock:
            for request in group:
                self._inflight.discard(request)
                n = len(request.plans)
                slots += request.paced
                request.paced = False
                if request.done:
                    verdicts.append(None)  # a concurrent close() answered it
                elif request.abandoned:
                    # Caller answered from fallback at its deadline while we
                    # were computing: a slow call against the breaker.
                    verdicts.append("slow")
                else:
                    if request.span.sampled and batch_span.sampled:
                        request.span.set_attr("batch_span_id", batch_span.span_id)
                    request.done = True
                    if error is not None:
                        request.error = error
                    else:
                        request.result = np.asarray(predictions[offset : offset + n])
                        request.version = version
                    request.event.set()
                    verdicts.append("ok" if error is None else "error")
                offset += n
        for verdict in verdicts:
            if verdict == "ok":
                self._service_time.observe(elapsed)
                self.breaker.record_success()
            elif verdict is not None:
                self.breaker.record_failure(kind=verdict)
        if self.pacer is not None and slots:
            if error is None:
                # The pipe computed this batch whether or not every caller
                # stayed to hear the answer — it is a genuine delivery-rate
                # and queue-free-latency measurement of the serving path.
                self.pacer.on_delivered(slots, elapsed_seconds=elapsed)
            else:
                # A failed batch measures nothing; just return the slots.
                self.pacer.release(slots)

    # -- reporting -------------------------------------------------------------

    def _sync_gauges(self) -> None:
        """The telemetry collector: mirror the queue and service into gauges."""
        self.telemetry.gauge("queue_depth").set(len(self._queue))
        mirror_service_gauges(self.telemetry, self._service)

    def stats(self) -> dict:
        """JSON-able operational snapshot: telemetry, breaker, pacer, queue."""
        snapshot = self.telemetry.snapshot()
        snapshot.update(self.guard.stats())
        self._obs_stats(snapshot)
        snapshot["queue_depth"] = len(self._queue)
        snapshot["has_model"] = self.has_model
        return snapshot

    # -- shutdown --------------------------------------------------------------

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop the worker, draining every already-admitted request.

        New admissions are refused immediately (answered from the fallback
        with reason ``"closed"``).  The worker keeps processing what was
        already admitted — those callers still get learned answers — and if
        it has not finished within ``timeout`` (a stuck learned path),
        everything still queued *or in flight* is failed over so the
        callers answer from the fallback instead of blocking forever.
        The gateway's one invariant survives shutdown: every admitted
        request is answered."""
        with self._lock:
            self._running = False
            self._unpark_locked()
        self._worker.join(timeout)
        released = 0
        with self._lock:
            stranded = list(self._queue) + list(self._inflight)
            self._queue.clear()
            self._inflight.clear()
            for request in stranded:
                released += request.paced
                request.paced = False
                if request.done:
                    continue
                request.done = True
                request.error = GatewayClosedError("gateway closed")
                request.event.set()
        if self.pacer is not None and released:
            self.pacer.release(released)
