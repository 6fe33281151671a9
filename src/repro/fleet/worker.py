"""The fleet worker process: one inference service behind one gateway's
guardrails per shard, driven by the pipe loop itself.

Each worker is a forked child running this module's :func:`fleet_worker_main`
loop.  It reuses the evaluation pool's bootstrap (:mod:`repro.evaluation.
pool`) — BLAS threads pinned to one per process so N workers do not
oversubscribe the machine N×BLAS ways, and a per-worker seed derived from
``(0, "fleet-<id>")`` via SHA-256 so any worker-local
randomness is reproducible regardless of fleet size — then loads the
promoted checkpoint into ``CostInferenceService → OptimizerGateway``.  The
pipe carries one frame at a time, so the loop is the gateway's only
producer and calls ``predict_inline``: admission, breaker, pacer, telemetry
and the learned batch all run on this thread, and only a request with a
deadline budget is handed to the gateway's own thread (so the loop can
answer from the fallback at the deadline).  The parent talks to the worker
over one duplex ``multiprocessing`` connection, one :mod:`repro.fleet.wire`
frame per message in either direction:

``("predict", req_id, plans_key, plans, env, deadline_ms, trace_wire)``
    Score one candidate set under one environment (``env`` is the
    request's feature tuple, or ``None`` for each node's logged one): one
    frame is one gateway request.  ``plans`` may be ``None`` when
    ``plans_key`` was shipped before — the worker keeps an LRU of recently
    seen candidate sets so steady-state traffic never pickles plan trees
    across the pipe; an unknown key answers ``("need-plans", req_id)`` and
    the client resends with plans attached.  ``trace_wire`` is the parent's
    serialized :class:`~repro.obs.TraceContext` (or ``None``): the worker's
    gateway spans join the parent's trace, and their finished records ride
    the ``("ok", req_id, (costs, source, reason, version), spans)`` reply
    back for cross-process stitching.  ``costs`` is raw ``float64`` bytes
    (:func:`~repro.fleet.wire.pack_costs`).
``("load", req_id, checkpoint_path, warm)``
    Staged promote: load the checkpoint, hot-swap it through the gateway
    (``swap_predictor(..., warm=...)``: under the service lock, re-scoring
    the warm list so the first post-promote requests hit a warm cache), ack
    the new ``weights_version``.  A checkpoint that fails to load (missing,
    truncated) answers ``("error", req_id, repr(exc))`` and the worker keeps
    serving the incumbent — a bad promote must not cost a shard.
``("stats", req_id)`` / ``("ping", req_id)`` / ``("close", req_id)``
    Telemetry snapshot, liveness probe, graceful drain-and-exit.
``("crash", req_id)``
    Chaos hook: die immediately (``os._exit``), as a real worker would on
    a segfault or OOM kill — the parent's shed-and-remap path is the test
    subject, so the death must skip Python cleanup.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.evaluation.pool import derive_seed, pin_blas_threads
from repro.fleet.wire import pack_costs, recv_frame, send_frame
from repro.gateway import OptimizerGateway
from repro.serving.service import CostInferenceService

__all__ = ["PLAN_CACHE_CAP", "fleet_worker_main"]

#: Candidate sets remembered per worker (keyed by the client's plans_key);
#: the parent mirrors this LRU per shard to know which frames need plans.
PLAN_CACHE_CAP = 512


def _load(gateway, path, warm) -> int:
    """Load ``path`` and hot-swap it into ``gateway``'s service (attaching
    one if the worker booted model-less); returns the served
    ``weights_version``.  Raises before anything is swapped when the file
    cannot be read or its encoder does not fit."""
    from repro.core.serialization import load_predictor

    predictor, _env = load_predictor(path)
    if gateway.has_model:
        gateway.swap_predictor(predictor, warm=warm or None)
    else:
        gateway.attach_service(CostInferenceService(predictor), warm=warm)
    return gateway.service.predictor.weights_version


def fleet_worker_main(
    conn,
    *,
    worker_id: str,
    checkpoint_path=None,
    gateway_config=None,
    obs_config=None,
) -> None:
    """Entry point of one forked fleet worker (blocks until ``close``)."""
    pin_blas_threads()
    seed = derive_seed(0, f"fleet-{worker_id}")
    tracer, recorder, slo = (
        obs_config.build(worker_id) if obs_config is not None else (None, None, None)
    )
    service = (
        CostInferenceService.from_checkpoint(checkpoint_path)
        if checkpoint_path is not None
        else None
    )
    gateway = OptimizerGateway(
        service, config=gateway_config, tracer=tracer, recorder=recorder, slo=slo
    )
    plan_cache: "OrderedDict[object, list]" = OrderedDict()

    try:
        while True:
            try:
                message, _ = recv_frame(conn)
            except EOFError:
                break  # parent went away; nothing left to serve
            kind, req_id = message[0], message[1]

            if kind == "predict":
                _, _, plans_key, plans, env, deadline_ms, trace_wire = message
                if plans is None:
                    plans = plan_cache.get(plans_key)
                    if plans is None:
                        send_frame(conn, ("need-plans", req_id))
                        continue
                    plan_cache.move_to_end(plans_key)
                elif plans_key is not None:
                    plan_cache[plans_key] = plans
                    plan_cache.move_to_end(plans_key)
                    while len(plan_cache) > PLAN_CACHE_CAP:
                        plan_cache.popitem(last=False)
                parent_ctx = None
                if trace_wire is not None and tracer is not None:
                    from repro.obs import TraceContext

                    parent_ctx = TraceContext.from_wire(trace_wire)
                r = gateway.predict_inline(
                    plans, env_features=env, deadline_ms=deadline_ms, trace=parent_ctx
                )
                result = (pack_costs(r.costs), r.source, r.reason, r.model_version)
                # This worker's finished spans for the trace ride the reply
                # back to the parent's collector (cross-process stitching).
                spans = (
                    tracer.drain(trace_id=parent_ctx.trace_id)
                    if parent_ctx is not None
                    else []
                )
                send_frame(conn, ("ok", req_id, result, spans))

            elif kind == "load":
                _, _, path, warm = message
                try:
                    version = _load(gateway, path, warm)
                except Exception as exc:  # noqa: BLE001 — reported to the parent
                    # Missing/truncated/incompatible checkpoint: the shard
                    # keeps serving; the parent's promote raises the cause.
                    if recorder is not None:
                        recorder.record("load-failed", str(path), error=repr(exc))
                    send_frame(conn, ("error", req_id, repr(exc)))
                else:
                    send_frame(conn, ("loaded", req_id, version))

            elif kind == "stats":
                # Raw histogram reservoirs ride along so the parent's merge
                # can compute exact fleet-level quantiles, not a max bound.
                send_frame(conn, ("stats", req_id, gateway.stats(include_samples=True)))

            elif kind == "ping":
                send_frame(conn, ("pong", req_id, worker_id, seed))

            elif kind == "crash":
                os._exit(1)

            elif kind == "close":
                send_frame(conn, ("closed", req_id))
                break

            else:
                send_frame(conn, ("error", req_id, f"unknown message kind {kind!r}"))
    finally:
        gateway.close()
        conn.close()
