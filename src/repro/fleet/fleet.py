"""The sharded serving fleet: N worker processes behind one tenant router.

One in-process gateway (:mod:`repro.gateway`) is GIL-capped: its
coalescing thread and every caller share one interpreter.  The fleet
breaks that cap with processes, given cores to spare (on one core,
``bench_e2e``'s ``fleet_zipf`` measures what the process hop costs).
Each shard is a forked bare scorer (:mod:`repro.fleet.worker`: read a
frame, ``service.predict``, write a frame), and a consistent-hash router
(:mod:`repro.fleet.router`) pins every tenant to one shard, so its caches
stay hot and the fleet's aggregate cache capacity is N× one process's.

This module is the one place a fleet request is admitted and answered:
route → the shard's :class:`~repro.gateway.gateway.Guard` (its circuit
breaker, then its admission pacer) → one exchange on the shard's socket →
the gateway's own :class:`~repro.gateway.gateway.AnswerPath`, so a fleet
answer leaves the audit trail a gateway answer does.  A ``deadline_ms``
covers the wait for the shard's lock, for a reply the shard still owes a
caller that gave up, and for the caller's own reply.  On expiry the
caller answers ``deadline`` and records one slow call; if its request was
sent, the shard owes the reply, which the next exchange on that shard
reads (checking its id) and discards first, and the pacer slot stays
taken until then.

Around that path: forked workers reuse the evaluation pool's bootstrap
(BLAS pinned to one thread, seeds derived per worker); one
``socket.socketpair`` and one lock per shard carry :mod:`repro.fleet.wire`
frames, with plan trees shipped once per shard by ``plans_key`` (the
parent mirrors the worker's LRU; ``need-plans`` is the backstop);
:meth:`ServingFleet.promote` stages a checkpoint shard by shard and
resets each shard's guard as it loads; a worker that died (its socket
reads end-of-file), stayed silent past ``rpc_timeout`` or replied out of
step sheds only its in-flight request (``"worker-crash"``), is killed,
and its tenants remap to the survivors; :meth:`ServingFleet.stats` merges
the shards' telemetry with the parent's (:mod:`repro.fleet.telemetry`).
"""

from __future__ import annotations

import functools
import itertools
import socket
import threading
import time
from collections import OrderedDict

from repro.evaluation.pool import fork_available
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.telemetry import merge_snapshots, merged_to_prometheus
from repro.fleet.wire import Channel, unpack_costs
from repro.fleet.worker import PLAN_CACHE_CAP, fleet_worker_main
from repro.gateway import GatewayResult, Telemetry
from repro.gateway.gateway import AnswerPath, Guard
from repro.obs import SpanCollector
from repro.obs.trace import NULL_SPAN
from repro.pacing import AdmissionPacer, PacerConfig

__all__ = ["ServingFleet", "WorkerCrashError"]

#: Seconds one blocking read waits before the parent checks that the
#: worker is alive and within ``rpc_timeout``.
_SLICE = 0.05


class WorkerCrashError(RuntimeError):
    """A worker died mid-conversation (socket closed or process exited)."""


#: What a broken, hung-up or closed socket raises (``BrokenPipeError`` and
#: ``ConnectionError`` are ``OSError``\ s).
_PIPE_ERRORS = (WorkerCrashError, EOFError, OSError)

#: What :meth:`ServingFleet._exchange` returns when a budget ran out before
#: the request was sent, or after (the shard owes its reply); reply-shaped.
_UNSENT, _OWED = ("unsent",), ("owed",)


class _WorkerHandle:
    """Parent-side state for one shard: process, socket, socket lock, the
    shard's guard, a mirror of the worker's LRU of candidate-set keys, and
    the id of the reply the shard owes a caller that gave up (at most one)."""

    __slots__ = ("name", "process", "channel", "guard", "lock", "alive", "sent_keys", "owed")

    def __init__(self, name, process, channel, guard) -> None:
        self.name = name
        self.process = process
        self.channel = channel
        self.guard = guard
        self.lock = threading.Lock()
        self.alive = True
        self.sent_keys: OrderedDict = OrderedDict()
        self.owed: int | None = None

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
    """N remote scorers behind a consistent-hash tenant router.

    ``checkpoint_path`` is the promoted model every worker loads at boot
    (``None`` starts the fleet model-less: every request answers from the
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
        #: contexts over the framing, and stitches worker-returned span
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
            parent_sock, child_sock = socket.socketpair()
            process = ctx.Process(
                target=fleet_worker_main,
                args=(child_sock,),
                kwargs={
                    "worker_id": name,
                    "checkpoint_path": (
                        str(checkpoint_path) if checkpoint_path is not None else None
                    ),
                    "obs_config": obs,
                },
                name=f"fleet-{name}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            # One guard per shard, in the parent: each shard is its own path
            # with its own health and capacity.  A crash remaps tenants to
            # survivors whose pacers keep their learned estimates; a staged
            # promote resets each shard's guard.
            key = name.replace("-", "_")
            pacer = (
                AdmissionPacer(pacer_config, telemetry=self.telemetry, name=f"pacer_{key}")
                if pacer_config is not None
                else None
            )
            guard = Guard(
                self.telemetry, pacer=pacer, gauge=f"breaker_{key}_state",
                on_trip=functools.partial(self._tripped, name),
            )
            self._workers[name] = _WorkerHandle(
                name, process, Channel(parent_sock, _SLICE), guard
            )
        self._paced = pacer_config is not None
        self.router = ConsistentHashRouter(self._workers)
        self._workers_alive.set(n_workers)

    # -- plumbing --------------------------------------------------------------

    def _next_req_id(self) -> int:
        return next(self._req_ids)  # atomic: one C call under the GIL

    def _read(self, handle: _WorkerHandle, req_id: int, until: float | None = None):
        """The reply to ``req_id``, ``(reply, byte count)``, or ``None`` once
        ``until`` (a budget's end, monotonic seconds) passed.  Waits in 50 ms
        receive slices, reading no clock while a frame arrives within one:
        a dead worker's socket reads end-of-file at once; one silent for
        ``rpc_timeout`` after the first empty slice, or replying to another
        id, raises :class:`WorkerCrashError`."""
        channel = handle.channel
        stall_at = None
        try:
            while True:
                if until is not None:
                    left = until - time.monotonic()
                    if left <= 0.0:
                        return None
                    channel.set_timeout(min(_SLICE, left))
                got = channel.recv()
                if got is not None:
                    if got[0][1] != req_id:
                        raise WorkerCrashError(
                            f"{handle.name}: protocol desync (reply {got[0][1]}, "
                            f"expected {req_id})"
                        )
                    return got
                if not handle.process.is_alive():
                    raise WorkerCrashError(f"{handle.name}: worker process died")
                now = time.monotonic()
                if stall_at is None:
                    stall_at = now + self.rpc_timeout
                elif now > stall_at:
                    raise WorkerCrashError(f"{handle.name}: rpc timed out")
        finally:
            if until is not None:
                channel.set_timeout(_SLICE)

    def _exchange(self, handle: _WorkerHandle, message: tuple, span=NULL_SPAN, until=None):
        """Send ``message`` and return its reply, first reading and
        discarding a reply the shard still owes; call under the handle's
        lock.  With a budget (``until``), returns :data:`_UNSENT` if it ran
        out before the request left, :data:`_OWED` after.  A sampled
        ``span`` gets the hop's parts (unsampled ones read no clock)."""
        if handle.owed is not None:
            if self._read(handle, handle.owed, until) is None:
                return _UNSENT
            handle.owed = None
            if handle.guard.pacer is not None:
                handle.guard.pacer.release()  # the abandoned request's slot
        timed = span.sampled
        t0 = time.perf_counter() if timed else 0.0
        sent = handle.channel.send(message)
        t1 = time.perf_counter() if timed else 0.0
        got = self._read(handle, message[1], until)
        if got is None:
            handle.owed = message[1]
            return _OWED
        t2 = time.perf_counter() if timed else 0.0
        reply, received = got
        if timed:
            span.set_attrs(
                rpc_send_us=1e6 * (t1 - t0),
                rpc_wait_us=1e6 * (t2 - t1),
                rpc_decode_us=1e6 * (time.perf_counter() - t2),
                frame_bytes_out=sent,
                frame_bytes_in=received,
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
        if handle.owed is not None and handle.guard.pacer is not None:
            handle.guard.pacer.release()  # no reply will come for it
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
            handle.channel.close()
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
        as the gateway's ``predict`` — always answers, flagging source and
        reason — with ``deadline_ms`` bounding the whole call.  A stable
        ``plans_key`` per candidate set ships the plan trees once per
        shard, so scoring one set under k environments sends k small
        frames.  A sampled ``fleet.request`` span's context rides the frame
        and the shard's span records ride the reply, so
        ``span_tree(result.trace_id)`` spans both processes; ``trace`` joins
        an upstream trace (e.g. a scenario replay's)."""
        started = time.monotonic()
        until = started + deadline_ms / 1e3 if deadline_ms is not None else None
        env = tuple(float(v) for v in env_features) if env_features is not None else None
        plans = list(plans)
        span = self._open(trace, len(plans))
        trace_wire = None
        if span.sampled:
            span.set_attr("tenant", tenant)
            trace_wire = span.context.to_wire()
        # A crash mid-request sheds to the fallback; a shard found dead at
        # routing time retries on the shrunken ring.
        for _attempt in range(max(1, len(self._workers))):
            if self._closed or not len(self.router):
                break
            shard = self.router.route(tenant)
            handle = self._workers[shard]
            if not handle.alive:
                continue
            if span.sampled:
                span.set_attr("shard", shard)
            guard = handle.guard
            refused = self._admit(guard, plans, env, started, span)
            if refused is not None:
                return refused
            breaker, pacer = guard.breaker, guard.pacer
            rpc_started = time.monotonic() if pacer is not None else 0.0
            try:
                reply = self._score(handle, plans_key, plans, env, trace_wire, span, until)
            except _PIPE_ERRORS as exc:
                self._mark_dead(handle, exc)
                guard.refund()  # a crashed exchange measures nothing
                return self._fallback_result(plans, env, "worker-crash", started, span=span)
            if reply is _UNSENT or reply is _OWED:
                if reply is _UNSENT and pacer is not None:
                    pacer.release()  # an owed reply keeps the slot until it is read
                breaker.record_failure(kind="slow")
                self.telemetry.counter("deadline_miss_total", "requests past budget").inc()
                return self._fallback_result(plans, env, "deadline", started, span=span)
            if self.collector is not None:
                self.collector.add_many(reply[3])  # the shard's span records
            kind = reply[0]
            if kind == "ok":
                done = time.monotonic()
                if pacer is not None:
                    # The round trip, need-plans resend included, is one
                    # delivery sample.
                    pacer.on_delivered(1, elapsed_seconds=done - rpc_started)
                breaker.record_success(done - started)
                costs, version = reply[2]
                latency_ms = 1e3 * (done - started)
                return self._finish(
                    GatewayResult(unpack_costs(costs), "learned", "ok", latency_ms, version),
                    span=span,
                    pacer=pacer,
                )
            if kind == "no-model":
                guard.refund()
                return self._fallback_result(plans, env, "no-model", started, span=span)
            if pacer is not None:
                pacer.release()
            breaker.record_failure()
            return self._fallback_result(plans, env, "model-error", started, span=span)
        reason = "closed" if self._closed else "no-workers"
        return self._fallback_result(plans, env, reason, started, span=span)

    def _score(self, handle, plans_key, plans, env, trace_wire, span, until):
        """One request's exchange with its shard, within ``until`` when the
        request has a budget: the reply, or :data:`_UNSENT` / :data:`_OWED`."""
        if until is None:
            handle.lock.acquire()
        else:
            left = until - time.monotonic()
            if left <= 0.0 or not handle.lock.acquire(timeout=left):
                return _UNSENT
        try:
            if not handle.alive:
                raise WorkerCrashError(f"{handle.name}: lost while this request waited")
            def frame(ship_plans):
                return ("predict", self._next_req_id(), plans_key,
                        plans if ship_plans else None, env, trace_wire)

            known = plans_key is not None and handle.remember(plans_key)
            reply = self._exchange(handle, frame(not known), span, until)
            if reply[0] == "need-plans":
                # The mirror was wrong (the worker never saw this key, or
                # evicted it); resend with plans inline.
                self.telemetry.counter(
                    "plans_resent_total", "predict frames refused with need-plans and resent"
                ).inc()
                reply = self._exchange(handle, frame(True), span, until)
            return reply
        finally:
            handle.lock.release()

    # -- model rollout ---------------------------------------------------------

    def promote(self, checkpoint_path, *, warm=None) -> dict[str, int]:
        """Stage ``checkpoint_path`` across the fleet, worker by worker.

        Each live worker loads the checkpoint, hot-swaps it into its
        service, and warms its caches from ``warm`` (``(plan,
        env_features)`` pairs, e.g. the feedback log's hottest plans), and
        its guard resets (:meth:`~repro.gateway.gateway.Guard.reset`)
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
            reply = self._rpc(handle, ("load", self._next_req_id(), str(checkpoint_path), warm))
            if reply[0] == "error":
                # The shard refused the checkpoint and kept its incumbent;
                # stop here rather than stage a file known to be bad.
                raise RuntimeError(
                    f"promote of {checkpoint_path} failed on {name}: {reply[2]}"
                )
            acked[name] = int(reply[2])
            handle.guard.reset()
        if not acked:
            raise RuntimeError("promote with no live workers")
        if len(set(acked.values())) != 1:
            raise RuntimeError(f"fleet diverged after promote: {acked}")
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
            handle.channel.send(("crash", self._next_req_id()))

    def _ask_all(self, kind: str) -> dict[str, tuple]:
        """``{shard: reply}`` to a ``(kind, req_id)`` message, from every
        live worker (one lost on the way is left out)."""
        replies = {}
        for name, handle in self._workers.items():
            if handle.alive:
                try:
                    replies[name] = self._rpc(handle, (kind, self._next_req_id()))
                except WorkerCrashError:
                    pass
        return replies

    def ping(self) -> dict[str, int]:
        """Liveness probe of every live worker: ``{shard: derived seed}``."""
        return {name: reply[3] for name, reply in self._ask_all("ping").items()}

    def span_tree(self, trace_id):
        """The stitched cross-process span tree for one traced request
        (:class:`repro.obs.SpanTree`); raises when observability is off."""
        if self.collector is None:
            raise RuntimeError("span_tree requires the fleet's obs config")
        return self.collector.tree(trace_id)

    def stats(self) -> dict:
        """Fleet-wide operational snapshot: per-shard telemetry, the merged
        view, the parent's fleet-level counters, and each live shard's
        breaker (and pacer)."""
        shards = {name: reply[2] for name, reply in self._ask_all("stats").items()}
        guards = {name: self._workers[name].guard.stats() for name in self.live_workers()}
        out = {
            "workers_alive": len(guards),
            "workers_total": len(self._workers),
            "fleet": self.telemetry.snapshot(),
            "shards": shards,
            "merged": merge_snapshots(list(shards.values())),
            "breakers": {name: g["breaker"] for name, g in guards.items()},
        }
        if self._paced:
            out["pacers"] = {name: g["pacer"] for name, g in guards.items()}
        if self.collector is not None:
            out["collector"] = self.collector.stats()
        return self._obs_stats(out)

    def to_prometheus(self) -> str:
        """One text exposition: merged per-shard metrics under
        ``repro_fleet`` plus parent-side metrics under ``repro_fleet_parent``."""
        return merged_to_prometheus(self.stats()["merged"]) + self.telemetry.to_prometheus()

    # -- shutdown --------------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop every worker (idempotent); workers that fail to exit in
        ``timeout`` are terminated."""
        if self._closed:
            return
        self._closed = True
        self._ask_all("close")
        deadline = time.monotonic() + timeout
        for handle in self._workers.values():
            handle.process.join(max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            if handle.alive:
                handle.alive = False
                handle.channel.close()
        self._workers_alive.set(0)
