"""Windowed extremum filters: the pacer's two path estimators.

BBR models a network path with exactly two numbers, each estimated with a
windowed extremum filter over noisy per-delivery samples:

* **bottleneck bandwidth** — every delivery-rate sample *underestimates*
  the path (a sample taken while the pipe was not full measures the
  offered load, not the capacity), so the estimator is a **max** filter:
  the largest rate seen recently is the best lower bound on capacity;
* **propagation delay** — every latency sample *overestimates* the path
  (any queueing inflates it), so the estimator is a **min** filter: the
  smallest latency seen recently is the best upper bound on the
  queue-free delay.

Both are windowed in *time*, not sample count: an estimate older than the
window is stale (the path may have changed — here, a model hot swap or a
shifted batch mix) and must be re-learned, which is what the pacer's
PROBE_RTT / re-STARTUP behaviour exists for.

Implementation is the classic monotonic wedge: samples that can never
again be the extremum are discarded on insert, so ``update`` and ``get``
are amortised O(1) regardless of sample rate.
"""

from __future__ import annotations

from collections import deque

__all__ = ["WindowedMax", "WindowedMin"]


class _WindowedExtremum:
    """Time-windowed running extremum over ``(timestamp, value)`` samples."""

    #: +1 keeps the largest sample (max filter), -1 the smallest (min).
    _sign = 1

    def __init__(self, window_seconds: float) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        self.window_seconds = float(window_seconds)
        #: Monotonic wedge of (timestamp, value): values strictly
        #: "better-or-equal going left", timestamps increasing.
        self._wedge: deque[tuple[float, float]] = deque()
        #: When the current front (the extremum) last improved — the
        #: pacer's staleness signal (PROBE_RTT trigger).
        self._improved_at: float | None = None

    def _expire(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._wedge and self._wedge[0][0] < horizon:
            self._wedge.popleft()

    def update(self, value: float, now: float) -> float:
        """Fold in one sample observed at ``now``; returns the new extremum."""
        value = float(value)
        self._expire(now)
        better = (
            not self._wedge
            or self._sign * value >= self._sign * self._wedge[0][1]
        )
        if better:
            self._improved_at = now
        while self._wedge and self._sign * self._wedge[-1][1] <= self._sign * value:
            self._wedge.pop()
        self._wedge.append((now, value))
        return self._wedge[0][1]

    def get(self, now: float) -> float | None:
        """Current extremum, or ``None`` when the window holds no samples."""
        self._expire(now)
        return self._wedge[0][1] if self._wedge else None

    def seconds_since_improved(self, now: float) -> float | None:
        """Seconds since the extremum last got better (``None`` before any
        sample).  A long time without improvement means the estimate may be
        hiding a changed path behind stale glory."""
        if self._improved_at is None:
            return None
        return now - self._improved_at

    def touch(self, now: float) -> None:
        """Restart the staleness clock without a sample (the pacer calls
        this when a PROBE_RTT pass has just re-validated the estimate)."""
        if self._improved_at is not None:
            self._improved_at = now

    def reset(self) -> None:
        self._wedge.clear()
        self._improved_at = None


class WindowedMax(_WindowedExtremum):
    """Running maximum over a trailing time window (bandwidth filter)."""

    _sign = 1


class WindowedMin(_WindowedExtremum):
    """Running minimum over a trailing time window (latency filter)."""

    _sign = -1
