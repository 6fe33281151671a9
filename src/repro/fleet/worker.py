"""The fleet worker process: a bare remote scorer, one per shard.

Each worker is a forked child running :func:`fleet_worker_main`: the
evaluation pool's bootstrap (:mod:`repro.evaluation.pool`: BLAS pinned to
one thread, a seed derived from ``"fleet-<id>"``), the promoted checkpoint
loaded into a ``CostInferenceService``, then a loop that reads one frame,
runs ``service.predict`` and writes one frame.  Admission, breaker, pacer,
deadlines and every fallback answer belong to the parent
(:class:`~repro.fleet.fleet.ServingFleet`); the shard runs no thread and
no queue.  Messages, one :mod:`repro.fleet.wire` frame each way:

``("predict", req_id, plans_key, plans, env, trace_wire)``
    Score one candidate set under one environment (``env`` ``None``: each
    node's logged one).  ``plans`` is ``None`` when ``plans_key`` was
    shipped before (the worker keeps an LRU of candidate sets, which the
    parent mirrors); an unknown key answers ``("need-plans", req_id)``.
    The reply is ``(kind, req_id, payload, spans)``: ``"ok"`` with
    ``(costs, weights_version)`` (``costs`` as raw ``float64`` bytes), or
    ``"error"`` with the repr of what ``predict`` raised; the parent sends
    no ``predict`` to a shard before its first model, nor an empty one.
    With a ``trace_wire`` (the parent's sampled
    :class:`~repro.obs.TraceContext`), the shard opens one ``fleet.shard``
    span, ``serving.*`` spans nested under it, and returns their records
    as ``spans``.
``("load", req_id, checkpoint_path, warm)``
    Staged promote: load, hot-swap (``swap_predictor(..., warm=...)``
    re-scores the warm list) and ack ``("loaded", req_id,
    weights_version)``.  A checkpoint that fails to load answers
    ``("error", req_id, repr(exc))`` and the shard keeps its incumbent.
``("stats", req_id)`` / ``("ping", req_id)`` / ``("close", req_id)``
    Telemetry snapshot (with raw reservoirs, for exact merged
    quantiles), liveness probe, exit.
``("crash", req_id)``
    Chaos hook: ``os._exit`` at once, as on a segfault or OOM kill.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

from repro.evaluation.pool import derive_seed, pin_blas_threads
from repro.fleet.wire import Channel, pack_costs
from repro.gateway.gateway import mirror_service_gauges
from repro.gateway.telemetry import Telemetry
from repro.obs.trace import NULL_SPAN, TraceContext, activate_span
from repro.serving.service import CostInferenceService

__all__ = ["PLAN_CACHE_CAP", "fleet_worker_main"]

#: Candidate sets remembered per worker (keyed by the client's plans_key);
#: the parent mirrors this LRU per shard to know which frames need plans.
PLAN_CACHE_CAP = 512


class _Shard:
    """A worker's state: the service (``None`` until a model arrives), its
    plan-key LRU, and the telemetry ``stats`` ships to the parent."""

    def __init__(self, service, tracer) -> None:
        self.service = service
        self.tracer = tracer
        self.plan_cache: OrderedDict = OrderedDict()
        t = self.telemetry = Telemetry()
        self._requests = t.counter("requests_total")
        self._learned = t.counter("learned_total")
        self._batches = t.counter("batches_total")
        self._batch_seconds = t.histogram("learned_batch_seconds")
        self._batch_plans = t.histogram("batch_plans")
        self._latency = t.histogram("request_latency_seconds")  # frame read to answer
        t.add_collector(lambda: mirror_service_gauges(t, self.service))

    def plans_for(self, plans_key, plans):
        """The request's plans (``None``: the key is unknown here), touching
        the LRU as the parent's mirror of it is touched."""
        if plans is None:
            plans = self.plan_cache.get(plans_key)
            if plans is not None:
                self.plan_cache.move_to_end(plans_key)
        elif plans_key is not None:
            self.plan_cache[plans_key] = plans
            self.plan_cache.move_to_end(plans_key)
            while len(self.plan_cache) > PLAN_CACHE_CAP:
                self.plan_cache.popitem(last=False)
        return plans

    def score(self, plans, env, trace_wire, started) -> tuple:
        """Run one request through the service: ``(kind, payload, spans)``."""
        self._requests.inc()
        service = self.service
        span = NULL_SPAN
        if trace_wire is not None and self.tracer is not None:
            span = self.tracer.start_trace(
                "fleet.shard", parent=TraceContext.from_wire(trace_wire)
            )
        batch_started = time.monotonic()
        try:
            if span.sampled:
                with activate_span(span):  # the serving.* spans nest under it
                    costs = service.predict(plans, env_features=env)
            else:
                costs = service.predict(plans, env_features=env)
            kind, payload = "ok", (pack_costs(costs), service.weights_version)
        except Exception as exc:  # noqa: BLE001 — the parent answers model-error
            kind, payload = "error", repr(exc)
        done = time.monotonic()
        self._batches.inc()
        self._batch_seconds.observe(done - batch_started)
        self._batch_plans.observe(len(plans))
        self._latency.observe(done - started)
        if kind == "ok":
            self._learned.inc()
        if not span.sampled:
            return kind, payload, []
        span.set_attrs(n_plans=len(plans), outcome=kind)
        span.finish()
        return kind, payload, self.tracer.drain(trace_id=span.trace_id)

    def load(self, path, warm) -> int:
        """Load ``path`` and hot-swap it into the service (building one if
        the worker booted model-less); returns the served
        ``weights_version``.  Raises before anything is swapped when the
        file cannot be read or its encoder does not fit."""
        from repro.core.serialization import load_predictor

        predictor, _env = load_predictor(path)
        if self.service is not None:
            self.service.swap_predictor(predictor, warm=warm or None)
        else:
            self.service = CostInferenceService(predictor)
            if warm:
                self.service.warm_caches(warm)
        return self.service.weights_version


def fleet_worker_main(sock, *, worker_id: str, checkpoint_path=None, obs_config=None) -> None:
    """Entry point of one forked fleet worker (blocks until ``close``)."""
    pin_blas_threads()
    seed = derive_seed(0, f"fleet-{worker_id}")
    tracer, recorder = obs_config.build(worker_id) if obs_config is not None else (None, None)
    shard = _Shard(
        CostInferenceService.from_checkpoint(checkpoint_path)
        if checkpoint_path is not None
        else None,
        tracer,
    )
    channel = Channel(sock)
    try:
        while True:
            try:
                message, _ = channel.recv()
            except EOFError:
                break  # parent went away; nothing left to serve
            kind, req_id = message[0], message[1]

            if kind == "predict":
                started = time.monotonic()
                _, _, plans_key, plans, env, trace_wire = message
                plans = shard.plans_for(plans_key, plans)
                if plans is None:
                    channel.send(("need-plans", req_id))
                    continue
                answer, payload, spans = shard.score(plans, env, trace_wire, started)
                channel.send((answer, req_id, payload, spans))

            elif kind == "load":
                _, _, path, warm = message
                try:
                    version = shard.load(path, warm)
                except Exception as exc:  # noqa: BLE001 — reported to the parent
                    # Missing/truncated/incompatible checkpoint: the shard
                    # keeps serving; the parent's promote raises the cause.
                    if recorder is not None:
                        recorder.record("load-failed", str(path), error=repr(exc))
                    channel.send(("error", req_id, repr(exc)))
                else:
                    channel.send(("loaded", req_id, version))

            elif kind == "stats":
                channel.send(("stats", req_id, shard.telemetry.snapshot(include_samples=True)))

            elif kind == "ping":
                channel.send(("pong", req_id, worker_id, seed))

            elif kind == "crash":
                os._exit(1)

            elif kind == "close":
                channel.send(("closed", req_id))
                break

            else:
                channel.send(("error", req_id, f"unknown message kind {kind!r}"))
    finally:
        channel.close()
