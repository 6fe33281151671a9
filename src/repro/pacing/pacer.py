"""BBR-style admission pacer: congestion control for the serving path.

The gateway's serving path behaves like a network pipe: it has a
bottleneck throughput (plans the inference service can score per second)
and a queue-free latency (how long one batch takes when nothing is
waiting).  Overload handling before this module was loss-reactive — admit
into a deep bounded queue, shed off the end — which is exactly the
behaviour the source paper's BBR analysis argues against: deep queues turn
overload into latency (bufferbloat) and shedding into the primary signal.

:class:`AdmissionPacer` is the BBR recipe transplanted to admission
control.  Two windowed estimators (:mod:`repro.pacing.estimators`) learn
the path:

* ``btl_rate`` — windowed **max** of delivery-rate samples (requests per
  second from completed batches);
* ``min_latency`` — windowed **min** of queue-free service-latency
  samples (a batch's compute time, excluding queue wait).

Their product is the pipe's BDP — the number of requests that "fit" in
the serving path without queueing — and the pacer caps admitted-but-
unanswered requests (*inflight*) at a small state-dependent multiple of
it.  Requests past the cap are refused at admission (the gateway answers
them from the fallback immediately, reason ``pacer-limit``) instead of
parking on a queue whose depth the caller's deadline cannot afford.

The cap multiple follows BBR's state machine:

* **STARTUP** — exponential capacity discovery: a generous gain
  (``2/ln 2``) lets inflight grow until the delivery-rate estimate stops
  improving for ``STARTUP_FULL_ROUNDS`` consecutive batches (the pipe is
  full);
* **DRAIN** — the queue STARTUP built is drained: the cap drops to the
  BDP and admission stays blocked until inflight sinks to it;
* **PROBE_BW** — steady state: an eight-phase gain cycle (one phase above
  1.0 to probe for freed capacity, one below to drain what the probe
  built, six at 1.0) around ``cwnd_gain × BDP``;
* **PROBE_RTT** — when the min-latency estimate has not improved for
  ``PROBE_RTT_INTERVAL_SECONDS`` the pacer suspects it is stale, caps
  inflight to ``PROBE_RTT_CAP`` for ``probe_rtt_duration_seconds`` so the
  queue empties and a genuine queue-free sample can be taken, then
  returns to PROBE_BW.

With ``pace_admissions`` enabled the pacer also spaces admissions in
*time* at ``gain × btl_rate`` — BBR's pacing_rate, which is the protocol's
primary regulator (the inflight cap is its backstop).  Rate pacing is what
keeps the standing queue empty under sustained overload: the cap alone
lets every admitted request wait a full service time behind the one in
flight.

:meth:`reset` unconditionally re-enters STARTUP with cleared estimators —
the gateway calls it on every hot swap and circuit-breaker reset, when
the path behind the pacer changed and its capacity is unknown again.

The clock is injectable (monotonic seconds) so every transition is
unit-testable without sleeping; all methods are thread-safe.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.pacing.estimators import WindowedMax, WindowedMin

__all__ = [
    "AdmissionPacer",
    "PacerConfig",
    "STARTUP",
    "DRAIN",
    "PROBE_BW",
    "PROBE_RTT",
    "PACER_STATE_CODES",
]

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe-bw"
PROBE_RTT = "probe-rtt"

#: ``pacer_state`` gauge encoding (mirrors the breaker-state gauge idiom).
PACER_STATE_CODES = {STARTUP: 0.0, DRAIN: 1.0, PROBE_BW: 2.0, PROBE_RTT: 3.0}

#: BBR's STARTUP gain: 2/ln 2, the smallest gain that can double the
#: delivered rate every round while the pipe is still growing.
STARTUP_GAIN = 2.0 / math.log(2.0)
#: PROBE_BW gain cycle applied to ``cwnd_gain × BDP`` (one probing phase,
#: one draining phase, six cruising).
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: Floor of one PROBE_BW phase, which otherwise tracks the measured
#: queue-free latency (BBR paces its cycle at ~one RTT).
MIN_PHASE_SECONDS = 0.05
#: Time window of the delivery-rate max filter.
RATE_WINDOW_SECONDS = 10.0
#: Time window of the queue-free-latency min filter.
LATENCY_WINDOW_SECONDS = 10.0
#: Min-latency staleness that forces a PROBE_RTT pass.
PROBE_RTT_INTERVAL_SECONDS = 5.0
#: Inflight cap during PROBE_RTT (BBR's 4-packet floor, in requests).
PROBE_RTT_CAP = 1
#: Consecutive completed batches without ≥ ``STARTUP_GROWTH_FACTOR`` rate
#: growth that declare the pipe full (STARTUP → DRAIN).
STARTUP_FULL_ROUNDS = 3
STARTUP_GROWTH_FACTOR = 1.25


@dataclass(frozen=True)
class PacerConfig:
    """Tuning knobs of the admission pacer (documented in docs/PACING.md);
    the rest of BBR's schedule is the module constants above."""

    #: Steady-state cap multiple of the BDP.  2.0 keeps one batch in
    #: service and one queued behind it — the pipe never idles, and a
    #: freshly admitted request waits at most ~one extra service time.
    cwnd_gain: float = 2.0
    #: Cap before any estimate exists (a fresh or just-reset pacer).
    initial_cap: int = 8
    #: How long PROBE_RTT holds the cap down.
    probe_rtt_duration_seconds: float = 0.2
    #: Also space admissions in *time* at ``gain × pacing_margin ×
    #: btl_rate`` (BBR's pacing_rate, the primary regulator the inflight
    #: cap merely backstops).  With only the cap, every admitted request
    #: under overload waits a full service time behind the one in flight
    #: — p99 pins at cap × queue-free latency.  Rate pacing admits on the
    #: bottleneck's own cadence so the pipe stays busy but the standing
    #: queue stays empty.  Off by default: callers that want pure
    #: inflight-window behaviour (and the cheaper admission check) keep
    #: it.
    pace_admissions: bool = False
    #: Multiplier on the pacing rate; values just below 1.0 guarantee any
    #: transient queue drains between probe phases (BBRv2 paces slightly
    #: below the estimated bottleneck for the same reason).
    pacing_margin: float = 1.0


class AdmissionPacer:
    """Thread-safe BBR-style inflight governor for one serving path."""

    def __init__(
        self,
        config: PacerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
        name: str = "pacer",
    ) -> None:
        self.config = config or PacerConfig()
        self.clock = clock
        self.telemetry = None
        self.name = name
        self._lock = threading.Lock()
        self._rate = WindowedMax(RATE_WINDOW_SECONDS)
        self._latency = WindowedMin(LATENCY_WINDOW_SECONDS)
        self._state = STARTUP
        self._state_entered_at = clock()
        self._inflight = 0
        self._probe_bw_phase = 0
        self._phase_started_at = self._state_entered_at
        self._startup_best_rate = 0.0
        self._startup_stale_rounds = 0
        self._next_admit_at: float | None = None
        self.admitted_total = 0
        self.denied_total = 0
        self.delivered_total = 0
        self.resets_total = 0
        self.state_entries = {state: 0 for state in PACER_STATE_CODES}
        self.state_entries[STARTUP] = 1
        #: Per-state dwell histogram names (time spent per visit), built
        #: once: ``telemetry`` may be attached after construction, so only
        #: the names are bound.
        self._dwell_names = {
            state: f"{name}_dwell_{state.replace('-', '_')}_seconds"
            for state in PACER_STATE_CODES
        }
        if telemetry is not None:
            self.attach(telemetry)

    def attach(self, telemetry) -> None:
        """Report dwell times and, when it is read, gauges to ``telemetry``."""
        self.telemetry = telemetry
        telemetry.add_collector(self.sync_gauges)

    # -- estimates -------------------------------------------------------------

    def _bdp_locked(self, now: float) -> float | None:
        """Bandwidth-delay product in requests: how many fit in the pipe
        without queueing.  ``None`` until both estimators have samples."""
        rate = self._rate.get(now)
        latency = self._latency.get(now)
        if rate is None or latency is None:
            return None
        return rate * latency

    # -- state machine ---------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._advance_locked(self.clock())
            return self._state

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _cap_locked(self, now: float) -> int:
        cfg = self.config
        if self._state == PROBE_RTT:
            return PROBE_RTT_CAP
        bdp = self._bdp_locked(now)
        if bdp is None:
            return cfg.initial_cap
        # A BDP is positive (every delivery sample is ≥ 1 request), so
        # every ceiling below is ≥ 1 and the window never closes.
        if self._state == STARTUP:
            # Never below the initial cap: STARTUP must be able to grow
            # inflight past the still-underestimated BDP.
            return max(cfg.initial_cap, math.ceil(STARTUP_GAIN * bdp))
        if self._state == DRAIN:
            return math.ceil(bdp)
        gain = PROBE_BW_GAINS[self._probe_bw_phase]
        return math.ceil(gain * cfg.cwnd_gain * bdp)

    def _enter_locked(self, state: str, now: float) -> None:
        if state == self._state:
            return
        if self.telemetry is not None:
            self.telemetry.histogram(self._dwell_names[self._state]).observe(
                now - self._state_entered_at
            )
        self._state = state
        self._state_entered_at = now
        self.state_entries[state] += 1
        if state == STARTUP:
            self._startup_best_rate = 0.0
            self._startup_stale_rounds = 0
        elif state == PROBE_BW:
            self._probe_bw_phase = 0
            self._phase_started_at = now

    def _phase_seconds_locked(self, now: float) -> float:
        latency = self._latency.get(now)
        return max(MIN_PHASE_SECONDS, latency if latency is not None else 0.0)

    def _advance_locked(self, now: float) -> None:
        """Time-driven transitions (the sample-driven STARTUP→DRAIN check
        lives in :meth:`on_delivered`, where the samples arrive)."""
        if self._state == DRAIN:
            bdp = self._bdp_locked(now)
            if bdp is None or self._inflight <= math.ceil(bdp):
                self._enter_locked(PROBE_BW, now)
        if self._state == PROBE_BW:
            phase = self._phase_seconds_locked(now)
            while now - self._phase_started_at >= phase:
                self._phase_started_at += phase
                self._probe_bw_phase = (self._probe_bw_phase + 1) % len(PROBE_BW_GAINS)
            stale = self._latency.seconds_since_improved(now)
            if stale is not None and stale >= PROBE_RTT_INTERVAL_SECONDS:
                self._enter_locked(PROBE_RTT, now)
        if self._state == PROBE_RTT:
            if now - self._state_entered_at >= self.config.probe_rtt_duration_seconds:
                # The pass held the pipe near-empty; whatever min was
                # sampled during it is trustworthy for another interval.
                self._latency.touch(now)
                if self._bdp_locked(now) is None:
                    self._enter_locked(STARTUP, now)
                else:
                    self._enter_locked(PROBE_BW, now)

    # -- admission + delivery --------------------------------------------------

    def _pacing_gain_locked(self) -> float:
        if self._state == STARTUP:
            return STARTUP_GAIN
        if self._state == DRAIN:
            return 1.0 / STARTUP_GAIN  # BBR: drain what STARTUP built
        if self._state == PROBE_BW:
            return PROBE_BW_GAINS[self._probe_bw_phase]
        return 1.0  # PROBE_RTT: the cap floor dominates anyway

    def try_admit(self) -> bool:
        """Claim one inflight slot; ``False`` means the caller must shed
        (the pipe plus its allowed headroom is full, or — with
        ``pace_admissions`` — the next pacing token is not due yet)."""
        now = self.clock()
        with self._lock:
            self._advance_locked(now)
            if self._inflight >= self._cap_locked(now):
                self.denied_total += 1
                return False
            if self.config.pace_admissions:
                rate = self._rate.get(now)
                if rate is not None and rate > 0.0:
                    if self._next_admit_at is not None and now < self._next_admit_at:
                        self.denied_total += 1
                        return False
                    interval = 1.0 / (
                        self._pacing_gain_locked() * self.config.pacing_margin * rate
                    )
                    # Strict pacing: idle time earns no token backlog, so a
                    # lull cannot be followed by a queue-building burst.
                    base = self._next_admit_at if self._next_admit_at is not None else now
                    self._next_admit_at = max(now, base) + interval
            self._inflight += 1
            self.admitted_total += 1
            return True

    def next_admit_eta(self, now: float | None = None) -> float | None:
        """Seconds until an admission would plausibly succeed — the
        Retry-After hint attached to ``pacer-limit`` sheds.

        Combines both admission gates: the pacing token (time until
        ``_next_admit_at``) and the inflight window (excess requests over
        the cap, paced out at the bottleneck rate — or, with only a
        latency estimate, one queue-free service time each).  Returns
        ``0.0`` when admission is currently open and ``None`` when the
        pacer has no estimate to base a hint on (fresh or just reset).
        """
        with self._lock:
            now = self.clock() if now is None else now
            self._advance_locked(now)
            return self._eta_locked(now)

    def _eta_locked(self, now: float) -> float | None:
        waits: list[float] = []
        rate = self._rate.get(now)
        if (
            self.config.pace_admissions
            and self._next_admit_at is not None
            and rate is not None
            and rate > 0.0
            and now < self._next_admit_at
        ):
            waits.append(self._next_admit_at - now)
        cap = self._cap_locked(now)
        if self._inflight >= cap:
            excess = self._inflight - cap + 1
            if rate is not None and rate > 0.0:
                waits.append(excess / rate)
            else:
                latency = self._latency.get(now)
                if latency is None:
                    return None
                waits.append(excess * latency)
        return max(waits) if waits else 0.0

    def release(self, n: int = 1) -> None:
        """Return slots whose requests never produced a delivery sample
        (failed batches, abandoned or drained requests)."""
        with self._lock:
            self._inflight = max(0, self._inflight - n)
            self._advance_locked(self.clock())

    def on_delivered(self, n: int = 1, *, elapsed_seconds: float) -> None:
        """Account a completed batch of ``n`` admitted requests computed in
        ``elapsed_seconds``.  Feeds both estimators: the batch delivered
        ``n / elapsed`` requests per second (a *lower bound* on capacity —
        the max filter absorbs that), and its compute time is a queue-free
        latency sample (any queue wait is excluded by the caller)."""
        now = self.clock()
        elapsed = max(float(elapsed_seconds), 1e-9)
        with self._lock:
            self._inflight = max(0, self._inflight - n)
            self.delivered_total += n
            rate = self._rate.update(n / elapsed, now)
            self._latency.update(elapsed, now)
            if self._state == STARTUP:
                if rate >= self._startup_best_rate * STARTUP_GROWTH_FACTOR:
                    self._startup_best_rate = rate
                    self._startup_stale_rounds = 0
                else:
                    self._startup_stale_rounds += 1
                    if self._startup_stale_rounds >= STARTUP_FULL_ROUNDS:
                        self._enter_locked(DRAIN, now)
            self._advance_locked(now)

    def reset(self) -> None:
        """Re-enter STARTUP with cleared estimators: the path changed (hot
        swap, breaker reset) and its capacity is unknown again.  Inflight
        accounting is preserved — admitted requests are still out there."""
        now = self.clock()
        with self._lock:
            self._rate.reset()
            self._latency.reset()
            self._startup_best_rate = 0.0
            self._startup_stale_rounds = 0
            self._next_admit_at = None
            self.resets_total += 1
            if self._state == STARTUP:
                # _enter_locked is a no-op when already there; a reset must
                # still read as a fresh STARTUP visit.
                self._state_entered_at = now
                self.state_entries[STARTUP] += 1
            else:
                self._enter_locked(STARTUP, now)

    # -- reporting -------------------------------------------------------------

    def sync_gauges(self) -> None:
        """Write the operating point into the attached registry's gauges
        (state, estimates, cap): its collector, run when it is read."""
        telemetry = self.telemetry
        now = self.clock()
        with self._lock:
            self._advance_locked(now)
            state = self._state
            cap = self._cap_locked(now)
            inflight = self._inflight
            rate = self._rate.get(now)
            latency = self._latency.get(now)
        prefix = self.name
        telemetry.gauge(f"{prefix}_state").set(PACER_STATE_CODES[state])
        # The BDP-derived cap on admitted, unanswered requests.
        telemetry.gauge(f"{prefix}_inflight_cap").set(cap)
        telemetry.gauge(f"{prefix}_inflight").set(inflight)
        # The bottleneck delivery-rate (requests/s) and queue-free
        # service-latency estimates.
        telemetry.gauge(f"{prefix}_btl_rate").set(rate if rate is not None else 0.0)
        telemetry.gauge(f"{prefix}_min_latency_seconds").set(
            latency if latency is not None else 0.0
        )

    def stats(self) -> dict:
        """JSON-able operating snapshot."""
        now = self.clock()
        with self._lock:
            self._advance_locked(now)
            rate = self._rate.get(now)
            latency = self._latency.get(now)
            bdp = self._bdp_locked(now)
            return {
                "state": self._state,
                "inflight": self._inflight,
                "inflight_cap": self._cap_locked(now),
                "btl_rate": rate,
                "min_latency_seconds": latency,
                "bdp": bdp,
                "probe_bw_phase": self._probe_bw_phase,
                "next_admit_eta_seconds": self._eta_locked(now),
                "admitted_total": self.admitted_total,
                "denied_total": self.denied_total,
                "delivered_total": self.delivered_total,
                "resets_total": self.resets_total,
                "state_entries": dict(self.state_entries),
            }

    def __repr__(self) -> str:
        stats = self.stats()
        rate = stats["btl_rate"]
        return (
            f"AdmissionPacer({stats['state']}, inflight={stats['inflight']}/"
            f"{stats['inflight_cap']}, btl_rate="
            f"{rate:.1f}/s)" if rate is not None else
            f"AdmissionPacer({stats['state']}, unmeasured)"
        )
