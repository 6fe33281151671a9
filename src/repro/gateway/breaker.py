"""Per-model-version circuit breaker for the learned serving path.

Classic three-state breaker (closed → open → half-open) over a rolling
outcome window:

* **closed** — every request may take the learned path.  Each outcome is
  pushed into a bounded window of ``WINDOW``; when at least ``MIN_CALLS``
  outcomes exist and the failed-or-slow fraction reaches
  ``FAILURE_RATE_THRESHOLD``, the breaker trips.
* **open** — the learned path is off; callers answer from the fallback
  without queueing.  After ``COOLDOWN_SECONDS`` the next ``allow`` call
  moves the breaker to half-open.
* **half-open** — up to ``HALF_OPEN_PROBES`` probe requests may take the
  learned path.  ``HALF_OPEN_PROBES`` consecutive successes close the
  breaker (window cleared: the new-or-recovered model starts with a clean
  record); any failure re-opens it and restarts the cooldown.

"Slow" outcomes count toward the trip the same way errors do — a learned
path that answers correctly but blows its deadline budget is just as
unusable online (the paper's guardrail stance: never let the learned
component hold the optimizer hostage).  ``reset`` returns to closed
unconditionally; the gateway's and each fleet shard's guard call it on
every model swap so a freshly promoted model is never punished for its
predecessor's record.

The clock is injectable (monotonic seconds) so trip/cooldown/probe
transitions are unit-testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

# Trip and recovery thresholds, documented in docs/GATEWAY.md.
#: Rolling outcome window evaluated for the trip decision.
WINDOW = 32
#: No trip below this many recorded outcomes (cold-start guard).
MIN_CALLS = 8
#: Failed-or-slow fraction of the window that trips the breaker.
FAILURE_RATE_THRESHOLD = 0.5
#: Seconds the breaker stays open before probing.
COOLDOWN_SECONDS = 30.0
#: Consecutive probe successes required to close from half-open.
HALF_OPEN_PROBES = 3


class CircuitBreaker:
    """Thread-safe breaker guarding one served model version."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_trip: Callable[["CircuitBreaker"], None] | None = None,
    ) -> None:
        self.clock = clock
        self.on_trip = on_trip
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=WINDOW)  # True == bad
        self._bad = 0  # running sum(self._outcomes)
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        self.trip_count = 0
        self.failure_count = 0
        self.slow_count = 0
        self.success_count = 0

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        # An expired cooldown reads as half-open even before the next allow()
        # performs the transition, so observers never see a stale "open".
        if self._state == OPEN and self.clock() - self._opened_at >= COOLDOWN_SECONDS:
            return HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the next request take the learned path?  In half-open state
        this *consumes* one probe slot."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self.clock() - self._opened_at < COOLDOWN_SECONDS:
                    return False
                self._state = HALF_OPEN
                self._probes_issued = 0
                self._probe_successes = 0
            # half-open: grant a bounded number of in-flight probes.
            if self._probes_issued < HALF_OPEN_PROBES:
                self._probes_issued += 1
                return True
            return False

    # -- outcomes -------------------------------------------------------------

    def record_success(self) -> None:
        tripped = False
        with self._lock:
            self.success_count += 1
            if self._state == CLOSED and not self._bad and len(self._outcomes) == WINDOW:
                # A clean, full window: pushing one more success would
                # drop a success and change nothing.
                return
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= HALF_OPEN_PROBES:
                    self._close_locked()
            elif self._state == CLOSED:
                tripped = self._evaluate_locked(False)
            # open: stale outcome from before the trip; the window is gone.
        if tripped and self.on_trip is not None:
            self.on_trip(self)

    def record_failure(self, *, kind: str = "error") -> None:
        """Record a learned-path failure; ``kind`` is ``"error"`` (raised) or
        ``"slow"`` (deadline budget missed)."""
        tripped = False
        with self._lock:
            if kind == "slow":
                self.slow_count += 1
            else:
                self.failure_count += 1
            if self._state == HALF_OPEN:
                tripped = self._trip_locked()
            elif self._state == CLOSED:
                tripped = self._evaluate_locked(True)
        if tripped and self.on_trip is not None:
            self.on_trip(self)

    def _evaluate_locked(self, bad: bool) -> bool:
        """Push one closed-state outcome into the window and trip if the
        failed-or-slow fraction reached the threshold."""
        outcomes = self._outcomes
        if outcomes and len(outcomes) == outcomes.maxlen:
            self._bad -= outcomes.popleft()
        outcomes.append(bad)
        self._bad += bad
        if len(outcomes) < MIN_CALLS:
            return False
        if self._bad / len(outcomes) >= FAILURE_RATE_THRESHOLD:
            return self._trip_locked()
        return False

    def _trip_locked(self) -> bool:
        self._state = OPEN
        self._opened_at = self.clock()
        self.trip_count += 1
        self._outcomes.clear()
        self._bad = 0
        return True

    def _close_locked(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        self._bad = 0
        self._probes_issued = 0
        self._probe_successes = 0

    def release_probe(self) -> None:
        """Return an unused half-open probe slot (a guard grants a probe at
        admission; if the request is then shed before reaching the learned
        path, the slot must not leak or half-open could stall)."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_issued > 0:
                self._probes_issued -= 1

    def reset(self) -> None:
        """Unconditionally close (on a model swap, through
        :meth:`repro.gateway.gateway.Guard.reset`): a new model version
        starts with a clean record."""
        with self._lock:
            self._close_locked()

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "trip_count": self.trip_count,
                "success_count": self.success_count,
                "failure_count": self.failure_count,
                "slow_count": self.slow_count,
                "window_filled": len(self._outcomes),
            }
