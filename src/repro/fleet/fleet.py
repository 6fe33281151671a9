"""The sharded serving fleet: N worker processes behind one tenant router.

One :class:`~repro.gateway.gateway.OptimizerGateway` is GIL-capped — its
coalescing worker thread and every caller share one interpreter, so adding
client threads cannot add throughput.  The fleet breaks that cap with
processes, given cores to spare (on one core, ``bench_e2e``'s
``fleet_zipf`` workload measures what the process hop costs): each shard
is a forked child with a private ``CostInferenceService`` behind its own
``OptimizerGateway`` guardrails, run by the shard's pipe loop
(``predict_inline``: one frame at a time leaves nothing to coalesce, so no
thread hand-off inside a worker unless the request carries a deadline),
and a consistent-hash router
(:mod:`repro.fleet.router`) pins every tenant to one shard so its
encoding/prediction caches stay hot and the fleet's *aggregate* cache
capacity is N× a single process's.

Parent-side responsibilities (this module):

* process lifecycle — fork workers (reusing the evaluation pool's
  bootstrap: BLAS pinned to one thread per worker, seeds derived per
  worker), graceful drain on :meth:`ServingFleet.close`;
* routing + framing — per-worker duplex pipes carrying one
  :mod:`repro.fleet.wire` frame per message, one lock and one registered
  poller per pipe (callers to *different* shards never serialize on each
  other), encode-once plan shipping via a per-worker ``plans_key`` LRU
  that mirrors the worker's, with ``need-plans`` resend as the backstop;
* staged promotes — :meth:`promote` walks live workers one at a time,
  each loading the checkpoint and warming its caches before the next
  starts, so the fleet never has every shard cold simultaneously;
* crash containment — a dead (or stalled past ``rpc_timeout``) worker
  sheds only its own in-flight request to the parent's native fallback
  (reason ``"worker-crash"``), is killed and reaped, leaves the ring, and
  its tenants remap to the survivors (~1/N of the keyspace);
  the event is visible in fleet telemetry (``worker_failures_total``,
  ``workers_alive``);
* one answer path — the parent counts, sheds, answers and traces a
  request through the gateway's own :class:`~repro.gateway.gateway.
  AnswerPath`, so a fleet answer leaves the audit trail a gateway answer
  does;
* merged observability — per-shard gateway snapshots plus fleet-level
  counters, merged into one JSON/Prometheus export
  (:mod:`repro.fleet.telemetry`).
"""

from __future__ import annotations

import itertools
import select
import threading
import time
from collections import OrderedDict

from repro.evaluation.pool import fork_available
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.telemetry import merge_snapshots, merged_to_prometheus
from repro.fleet.wire import recv_frame, send_frame, unpack_costs
from repro.fleet.worker import PLAN_CACHE_CAP, fleet_worker_main
from repro.gateway import GatewayResult, Telemetry
from repro.gateway.gateway import AnswerPath
from repro.obs import SpanCollector
from repro.obs.trace import NULL_SPAN
from repro.pacing import AdmissionPacer, PacerConfig

__all__ = ["ServingFleet", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A worker died mid-conversation (pipe broke or process exited)."""


#: What a broken, hung-up or closed pipe raises (``BrokenPipeError`` and
#: ``ConnectionError`` are ``OSError``\ s).
_PIPE_ERRORS = (WorkerCrashError, EOFError, OSError)


class _WorkerHandle:
    """Parent-side state for one shard: process, pipe, pipe lock, a poller
    registered on the pipe once, and a mirror of the worker's LRU of
    candidate-set keys."""

    __slots__ = ("name", "process", "conn", "lock", "alive", "sent_keys", "poller")

    def __init__(self, name, process, conn) -> None:
        self.name = name
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True
        self.sent_keys: OrderedDict = OrderedDict()
        self.poller = select.poll()
        self.poller.register(conn.fileno(), select.POLLIN)

    def remember(self, plans_key) -> bool:
        """Whether the worker already holds ``plans_key``'s plans — touching
        the mirror exactly as the worker's plan cache is touched by the
        frame about to be sent (call under :attr:`lock`, so both sides see
        the same order and evict the same key)."""
        known = plans_key in self.sent_keys
        self.sent_keys[plans_key] = None
        self.sent_keys.move_to_end(plans_key)
        while len(self.sent_keys) > PLAN_CACHE_CAP:
            self.sent_keys.popitem(last=False)
        return known


class ServingFleet(AnswerPath):
    """N sharded gateway workers behind a consistent-hash tenant router.

    ``checkpoint_path`` is the promoted model every worker loads at boot
    (``None`` starts the fleet model-less: every shard answers from its
    native fallback with reason ``"no-model"`` until :meth:`promote`).
    Requires a platform with ``fork`` (POSIX); construction raises
    otherwise rather than serving a silently single-process fleet.
    """

    span_name = "fleet.request"

    def __init__(
        self,
        checkpoint_path=None,
        *,
        n_workers: int = 4,
        gateway_config=None,
        rpc_timeout: float = 60.0,
        pacer_config: PacerConfig | None = None,
        obs=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not fork_available():
            raise RuntimeError("ServingFleet requires a platform with fork")
        import multiprocessing as mp

        self.rpc_timeout = rpc_timeout
        #: Observability (an :class:`repro.obs.ObsConfig`, or ``None`` for
        #: off): the parent mints ``fleet.request`` spans, ships their
        #: contexts over the RPC framing, and stitches worker-returned span
        #: records into complete per-trace trees via the collector; each
        #: worker builds its own tracer/recorder from the same config.
        self.obs = obs
        self.collector = SpanCollector() if obs is not None else None
        tracer, recorder, slo = (
            obs.build("fleet-parent", collector=self.collector)
            if obs is not None
            else (None, None, None)
        )
        super().__init__(
            Telemetry("repro_fleet_parent"), tracer=tracer, recorder=recorder, slo=slo
        )
        self._workers_alive = self.telemetry.gauge("workers_alive", "live fleet workers")
        self._req_ids = itertools.count(1)
        self._closed = False
        ctx = mp.get_context("fork")
        self._workers: dict[str, _WorkerHandle] = {}
        for i in range(n_workers):
            name = f"shard-{i}"
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=fleet_worker_main,
                args=(child_conn,),
                kwargs={
                    "worker_id": name,
                    "checkpoint_path": (
                        str(checkpoint_path) if checkpoint_path is not None else None
                    ),
                    "gateway_config": gateway_config,
                    "obs_config": obs,
                },
                name=f"fleet-{name}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers[name] = _WorkerHandle(name, process, parent_conn)
        # One admission pacer per shard (parent side): each shard is its own
        # pipe with its own capacity, so each gets its own BBR estimators.
        # A crash remaps tenants to survivors whose pacers keep their learned
        # estimates; a staged promote resets every pacer back to STARTUP.
        self._pacers: dict[str, AdmissionPacer] = {}
        if pacer_config is not None:
            self._pacers = {
                name: AdmissionPacer(
                    pacer_config,
                    telemetry=self.telemetry,
                    name=f"pacer_{name.replace('-', '_')}",
                )
                for name in self._workers
            }
        self.router = ConsistentHashRouter(self._workers)
        self._workers_alive.set(n_workers)

    # -- plumbing --------------------------------------------------------------

    def _next_req_id(self) -> int:
        return next(self._req_ids)  # atomic: one C call under the GIL

    def _exchange(self, handle: _WorkerHandle, message: tuple, span=NULL_SPAN):
        """Send ``message`` and return its reply; call under the handle's
        lock (the pipe is request-response, so replies cannot interleave).
        The wait is sliced so a worker that died or stalled surfaces as
        :class:`WorkerCrashError` instead of a hang; a hang-up makes the
        pipe readable, and the read then raises ``EOFError`` at once.  A
        sampled ``span`` gets the hop's parts (unsampled requests read no
        clock for them)."""
        timed = span.sampled
        t0 = time.perf_counter() if timed else 0.0
        sent = send_frame(handle.conn, message)
        t1 = time.perf_counter() if timed else 0.0
        deadline = time.monotonic() + self.rpc_timeout
        while not handle.poller.poll(50):
            if not handle.process.is_alive():
                raise WorkerCrashError(f"{handle.name}: worker process died")
            if time.monotonic() > deadline:
                raise WorkerCrashError(f"{handle.name}: rpc timed out")
        t2 = time.perf_counter() if timed else 0.0
        reply, received = recv_frame(handle.conn)
        if timed:
            span.set_attrs(
                rpc_send_us=1e6 * (t1 - t0),
                rpc_wait_us=1e6 * (t2 - t1),
                rpc_decode_us=1e6 * (time.perf_counter() - t2),
                frame_bytes_out=sent,
                frame_bytes_in=received,
            )
        if reply[1] != message[1]:
            raise WorkerCrashError(
                f"{handle.name}: protocol desync (reply {reply[1]}, "
                f"expected {message[1]})"
            )
        return reply

    def _rpc(self, handle: _WorkerHandle, message: tuple):
        try:
            with handle.lock:
                return self._exchange(handle, message)
        except _PIPE_ERRORS as exc:
            self._mark_dead(handle, exc)
            raise WorkerCrashError(f"{handle.name}: {exc}") from exc

    def _mark_dead(self, handle: _WorkerHandle, cause) -> None:
        if not handle.alive:
            return
        handle.alive = False
        try:
            self.router.remove_shard(handle.name)
        except KeyError:
            pass
        self.telemetry.counter(
            "worker_failures_total", "fleet workers lost (crash or pipe break)"
        ).inc()
        self._workers_alive.set(len(self.live_workers()))
        if self.recorder is not None:
            # Incident kind: snapshots the parent's recent spans/events so
            # the traffic leading up to the loss is reconstructable.
            self.recorder.record(
                "worker-crash",
                handle.name,
                cause=str(cause),
                workers_alive=len(self.live_workers()),
            )
        try:
            handle.conn.close()
        except OSError:
            pass
        # The parent has given up on this worker, but it may only be stalled
        # (rpc timeout, desync) and still hold a full serving stack: SIGKILL
        # also stops a SIGSTOPped process, which terminate() cannot.
        handle.process.kill()
        handle.process.join(5.0)

    def live_workers(self) -> list[str]:
        return [name for name, h in self._workers.items() if h.alive]

    # -- request path ----------------------------------------------------------

    def predict(
        self,
        tenant: str,
        plans,
        *,
        env_features=None,
        deadline_ms: float | None = None,
        plans_key=None,
        trace=None,
    ) -> GatewayResult:
        """Score ``plans`` for ``tenant`` on its pinned shard.  Same contract
        as ``OptimizerGateway.predict`` — always answers, flagging source
        and reason.  ``plans_key``, when stable across calls for the same
        candidate set, enables encode-once framing: the plan trees cross
        the pipe only on the first request per worker, so a caller scoring
        one set under several environments sends one frame per environment
        and the plans once.  With observability on, the parent's
        ``fleet.request`` span context rides the framing into the worker,
        whose span records ride the reply back — ``span_tree(result.
        trace_id)`` then reconstructs the request across both processes.
        ``trace`` joins an upstream trace (e.g. a scenario replay's
        deterministic context)."""
        started = time.monotonic()
        env = tuple(float(v) for v in env_features) if env_features is not None else None
        plans = list(plans)
        span = self._open(trace, len(plans))
        trace_wire = None
        if span.sampled:
            span.set_attr("tenant", tenant)
            trace_wire = span.context.to_wire()
        # A crash mid-request sheds to the fallback; a crash detected at
        # routing time retries on the shrunken ring (the survivors own the
        # dead shard's keyspace).
        for _attempt in range(max(1, len(self._workers))):
            if self._closed or not len(self.router):
                break
            shard = self.router.route(tenant)
            handle = self._workers[shard]
            if not handle.alive:
                continue
            if span.sampled:
                span.set_attr("shard", shard)
            pacer = self._pacers.get(shard)
            if pacer is not None and not pacer.try_admit():
                return self._fallback_result(
                    plans, env, "pacer-limit", started,
                    retry_after=pacer.next_admit_eta(), span=span, pacer=pacer,
                )
            rpc_started = time.monotonic()
            try:
                with handle.lock:
                    known = plans_key is not None and handle.remember(plans_key)
                    reply = self._exchange(
                        handle,
                        ("predict", self._next_req_id(), plans_key,
                         None if known else plans, env, deadline_ms, trace_wire),
                        span,
                    )
                    if reply[0] == "need-plans":
                        # The mirror was wrong (the worker never saw this
                        # key, or evicted it); resend with plans inline.
                        self.telemetry.counter(
                            "plans_resent_total",
                            "predict frames refused with need-plans and resent",
                        ).inc()
                        reply = self._exchange(
                            handle,
                            ("predict", self._next_req_id(), plans_key, plans,
                             env, deadline_ms, trace_wire),
                            span,
                        )
            except _PIPE_ERRORS as exc:
                self._mark_dead(handle, exc)
                if pacer is not None:
                    # A crashed RPC measures nothing; hand back the slot.
                    pacer.release()
                return self._fallback_result(plans, env, "worker-crash", started, span=span)
            if pacer is not None:
                # The whole round trip (including a need-plans resend — that
                # cost is real admission cost) is one delivery sample.
                pacer.on_delivered(
                    1, elapsed_seconds=time.monotonic() - rpc_started
                )
            latency_ms = 1e3 * (time.monotonic() - started)
            if self.collector is not None and len(reply) > 3:
                # Worker-side span records for this trace rode the reply;
                # stitch them with the parent's own spans.
                self.collector.add_many(reply[3])
            costs, source, reason, version = reply[2]
            return self._finish(
                GatewayResult(unpack_costs(costs), source, reason, latency_ms, version),
                span=span,
                pacer=pacer,
            )
        reason = "closed" if self._closed else "no-workers"
        return self._fallback_result(plans, env, reason, started, span=span)

    # -- model rollout ---------------------------------------------------------

    def promote(self, checkpoint_path, *, warm=None) -> dict[str, int]:
        """Stage ``checkpoint_path`` across the fleet, worker by worker.

        Each live worker loads the checkpoint, hot-swaps it into its
        service, and warms its caches from ``warm`` (``(plan,
        env_features)`` pairs, e.g. the feedback log's hottest plans)
        before the next worker begins — a rolling restart of the model,
        never of the processes.  Returns ``{shard: weights_version}`` for
        every worker that converged; raises ``RuntimeError`` naming the
        shard and cause if a worker could not load the checkpoint (it keeps
        serving its incumbent, as does every shard after it), if any live
        worker failed to ack, or if versions diverged."""
        acked: dict[str, int] = {}
        for name in list(self._workers):
            handle = self._workers[name]
            if not handle.alive:
                continue
            req_id = self._next_req_id()
            reply = self._rpc(
                handle, ("load", req_id, str(checkpoint_path), warm)
            )
            if reply[0] == "error":
                # The shard refused the checkpoint and kept its incumbent;
                # stop here rather than stage a file known to be bad.
                raise RuntimeError(
                    f"promote of {checkpoint_path} failed on {name}: {reply[2]}"
                )
            acked[name] = int(reply[2])
        if not acked:
            raise RuntimeError("promote with no live workers")
        if len(set(acked.values())) != 1:
            raise RuntimeError(f"fleet diverged after promote: {acked}")
        # Every shard is now serving a different model — its old delivery
        # rate / latency estimates describe a path that no longer exists.
        # Re-enter STARTUP and re-learn the pipe, exactly as BBR re-probes
        # after a route change.
        for name in acked:
            pacer = self._pacers.get(name)
            if pacer is not None:
                pacer.reset()
        self.telemetry.counter("promotes_total", "staged fleet promotes").inc()
        self.telemetry.gauge(
            "model_weights_version", "weights_version every shard converged to"
        ).set(next(iter(acked.values())))
        return acked

    # -- chaos + observability ---------------------------------------------------

    def crash_worker(self, shard: str) -> None:
        """Chaos hook: make ``shard`` die abruptly (``os._exit`` in the
        child).  The next request routed to it observes the death, sheds to
        the fallback, and remaps the shard's tenants."""
        handle = self._workers[shard]
        if not handle.alive:
            raise KeyError(f"{shard} is already dead")
        with handle.lock:
            send_frame(handle.conn, ("crash", self._next_req_id()))

    def ping(self) -> dict[str, int]:
        """Liveness probe of every live worker: ``{shard: derived seed}``."""
        out = {}
        for name, handle in self._workers.items():
            if not handle.alive:
                continue
            try:
                reply = self._rpc(handle, ("ping", self._next_req_id()))
            except WorkerCrashError:
                continue
            out[name] = reply[3]
        return out

    def span_tree(self, trace_id):
        """The stitched cross-process span tree for one traced request
        (:class:`repro.obs.SpanTree`); raises when observability is off."""
        if self.collector is None:
            raise RuntimeError("span_tree requires the fleet's obs config")
        return self.collector.tree(trace_id)

    def stats(self) -> dict:
        """Fleet-wide operational snapshot: per-shard gateway telemetry,
        the merged view, and the parent's fleet-level counters."""
        shards: dict[str, dict] = {}
        for name, handle in self._workers.items():
            if not handle.alive:
                continue
            try:
                reply = self._rpc(handle, ("stats", self._next_req_id()))
            except WorkerCrashError:
                continue
            shards[name] = reply[2]
        merged = merge_snapshots(list(shards.values()))
        out = {
            "workers_alive": len(self.live_workers()),
            "workers_total": len(self._workers),
            "fleet": self.telemetry.snapshot(),
            "shards": shards,
            "merged": merged,
        }
        if self._pacers:
            out["pacers"] = {
                name: pacer.stats()
                for name, pacer in self._pacers.items()
                if self._workers[name].alive
            }
        if self.tracer is not None:
            out["tracing"] = self.tracer.stats()
        if self.collector is not None:
            out["collector"] = self.collector.stats()
        if self.recorder is not None:
            out["flight_recorder"] = self.recorder.stats()
        if self.slo is not None:
            out["slo"] = self.slo.snapshot()
        return out

    def to_prometheus(self) -> str:
        """One text exposition: merged per-shard metrics under
        ``repro_fleet`` plus parent-side metrics under ``repro_fleet_parent``."""
        return merged_to_prometheus(self.stats()["merged"]) + self.telemetry.to_prometheus()

    # -- shutdown --------------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Drain and stop every worker (idempotent).  Each worker's own
        gateway drains its admitted requests before exiting; workers that
        fail to exit in ``timeout`` are terminated."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                self._rpc(handle, ("close", self._next_req_id()))
            except WorkerCrashError:
                continue
        deadline = time.monotonic() + timeout
        for handle in self._workers.values():
            handle.process.join(max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers_alive.set(0)

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
