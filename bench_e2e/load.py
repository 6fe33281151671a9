"""Load generators and the per-round statistics taken from their samples.

Closed loop: each caller sends its next request only after the previous
one returned, so a slower system receives less load (callers that each
wait for a reply).  Open loop: requests are sent on a fixed schedule
whatever the system does (independent users), latency is taken from the
time a request was *due*, and how late the generator itself ran is
reported next to it.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from array import array

import numpy as np

from spans import percentile, tail_percentile

#: Why an answer came from where it did (``GatewayResult.reason``), plus the
#: harness's own ``raised``; anything else counts as ``other``.
REASONS = ("ok", "pacer-limit", "deadline", "shed", "closed", "no-model", "circuit-open",
           "model-error", "worker-crash", "no-workers", "raised", "other")
_REASON_CODE = {reason: code for code, reason in enumerate(REASONS)}
_LEARNED, _OK = 1, 2


class Tape:
    """One caller thread's samples in two flat arrays.  No per-sample Python
    object survives a request: 190k sample tuples would add the harness's own
    garbage to the GC pauses and the resident set it is measuring."""

    def __init__(self) -> None:
        self.times = array("d")  # start, send, done per sample
        self.flags = array("B")  # learned | ok << 1 | reason code << 2


class Samples:
    """What the callers measured, one entry per request, as numpy columns.
    ``start`` is the due time (open loop) or the send time (closed loop);
    ``ok`` says the answer had one finite cost per plan."""

    def __init__(self, tapes) -> None:
        times = np.concatenate([np.frombuffer(t.times, dtype=np.float64) for t in tapes])
        flags = np.concatenate([np.frombuffer(t.flags, dtype=np.uint8) for t in tapes])
        self.start, self.send, self.done = times.reshape(-1, 3).T
        self.learned = (flags & _LEARNED) != 0
        self.ok = (flags & _OK) != 0
        self.reason = flags >> 2

    def __len__(self) -> int:
        return len(self.start)


class Issuer:
    """Sends request ``i`` of a stream through ``call``, checks the answer
    and, for a traced request, records its root and layer spans."""

    def __init__(self, stream, call, layer: str, tracer=None) -> None:
        self.stream = stream
        self.call = call
        self.layer = layer
        self.tracer = tracer
        self.problems: list[str] = []

    def issue(self, i: int, tape: Tape, due: float | None = None) -> None:
        stream = self.stream
        plans = stream.pool[stream.sets[i]]
        tracer = self.tracer
        request_id = None
        begin = time.perf_counter()
        if tracer is not None and tracer.active(begin if due is None else due):
            request_id = tracer.begin_request()
        send = time.perf_counter()
        try:
            result = self.call(i)
            done = time.perf_counter()
            costs = result.costs
            flags = _REASON_CODE.get(result.reason, len(REASONS) - 1) << 2
            if result.source == "learned":
                flags |= _LEARNED
            if len(costs) == len(plans) and math.isfinite(float(costs.sum())):
                flags |= _OK
            else:
                self.problems.append(f"request {i}: bad answer {costs!r}")
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            done = time.perf_counter()
            flags = _REASON_CODE["raised"] << 2
            self.problems.append(f"request {i}: raised {exc!r}")
        if request_id is not None:
            tracer.end_request(
                request_id, plans, stream.envs[i], self.layer,
                begin if due is None else due, send, done, time.perf_counter(),
            )
        tape.times.extend((send if due is None else due, send, done))
        tape.flags.append(flags)


def _run_threads(n: int, body) -> Samples:
    tapes = [Tape() for _ in range(n)]
    threads = [
        threading.Thread(target=body, args=(c, tapes[c]), name=f"bench-caller-{c}")
        for c in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Samples(tapes)


def closed_loop(issuer: Issuer, *, callers: int, stop: float, first: int = 0) -> Samples:
    """``callers`` threads stride through the stream from ``first`` until
    the clock passes ``stop``; caller ``c`` sends requests c, c+callers, ..."""
    n = len(issuer.stream)

    def body(c: int, tape: Tape) -> None:
        i = first + c
        while time.perf_counter() < stop:
            issuer.issue(i % n, tape)
            i += callers

    return _run_threads(callers, body)


def open_loop(issuer: Issuer, *, t0: float, threads: int) -> Samples:
    """Send every request of the stream at ``t0 + due[i]``.  ``threads``
    callers share the schedule: a blocking ``predict`` needs more callers
    than requests outstanding or the schedule itself would stall."""
    due = issuer.stream.due
    cursor = itertools.count()

    def body(_c: int, tape: Tape) -> None:
        while True:
            i = next(cursor)
            if i >= len(due):
                return
            at = t0 + due[i]
            wait = at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            issuer.issue(i, tape, due=at)

    return _run_threads(threads, body)


def summarize(samples: Samples, *, t0: float, seconds: float, rounds: int, limit_ms: float,
              by_due: bool) -> dict:
    """Per-round statistics of one measured window.

    A sample belongs to the round its completion falls in (closed loop) or
    its due time does (``by_due``, the open loop, whose latency percentiles
    are pooled over the window instead of taken per round).  Goodput counts
    learned, well-formed answers within ``limit_ms``."""
    round_seconds = seconds / rounds
    stamp = samples.start if by_due else samples.done
    index = np.floor((stamp - t0) / round_seconds).astype(np.int64)
    inside = index >= 0  # the open loop's convergence prefix is not counted
    index = np.minimum(index, rounds - 1)  # a closed-loop straggler joins the last round
    latency = samples.done - samples.start
    good = inside & samples.learned & samples.ok

    goodput, p50, p99, counts = [], [], [], []
    for k in range(rounds):
        in_round = np.sort(latency[good & (index == k)]).tolist()
        goodput.append(sum(1 for v in in_round if v <= limit_ms / 1e3) / round_seconds)
        if not by_due:
            p50.append(1e3 * percentile(in_round, 50.0))
            p99.append(1e3 * percentile(in_round, 99.0))
            counts.append(len(in_round))
    pooled = np.sort(latency[good]).tolist()
    if by_due:
        p50 = [1e3 * percentile(pooled, 50.0)]
        p99 = [1e3 * percentile(pooled, 99.0)]
        counts = [len(pooled)]
    fallback = inside & ~samples.learned & samples.ok
    codes = np.bincount(samples.reason[inside], minlength=len(REASONS))
    return {
        "attempted": int(inside.sum()),
        "failed": int((inside & ~samples.ok).sum()),
        "learned": len(pooled),
        "fallback": int(fallback.sum()),
        "reasons": {REASONS[code]: int(n) for code, n in enumerate(codes) if n},
        "goodput_rps": goodput,
        "lat_p50_ms": p50,
        "lat_p99_ms": p99,
        "lat_samples": counts,
        "lat_tail_supported": tail_percentile(pooled)[0],
        "round_requests": np.bincount(index[inside], minlength=rounds).tolist(),
        "fallback_latencies": np.sort((samples.done - samples.send)[fallback]).tolist(),
        "late": np.sort((samples.send - samples.start)[inside]).tolist(),
    }
