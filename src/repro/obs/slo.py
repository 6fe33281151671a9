"""SLO monitoring: rolling deadline-hit-rate and p99 burn-rate windows.

Follows the multi-window, multi-burn-rate alerting recipe: each configured
window tracks the deadline-miss *error rate* relative to the error budget
(``1 - objective``); the ratio is the **burn rate** (1.0 = spending budget
exactly at the sustainable pace).  An alert requires *every* window to
exceed its threshold simultaneously — the long window proves the burn is
material, the short window proves it is still happening — which is what
keeps pages from firing on either ancient history or momentary blips.

Latency is tracked the same way: per-window p99 against a target, exported
as a ``p99 / target`` ratio so dashboards get a unitless burn-style gauge.

The monitor takes an injectable clock, so window math is testable without
sleeping, and exports through :class:`repro.gateway.telemetry.Telemetry`
gauges (hence the Prometheus text format for free).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["SLOConfig", "SLOWindow", "SLOMonitor"]


@dataclass(frozen=True)
class SLOWindow:
    """One alerting window: ``seconds`` wide, alerting above ``threshold``."""

    seconds: float
    burn_threshold: float

    def __post_init__(self):
        if self.seconds <= 0:
            raise ValueError("window seconds must be > 0")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be > 0")


@dataclass(frozen=True)
class SLOConfig:
    """Objectives and alerting windows.

    ``deadline_hit_objective`` is the SLO proper (fraction of requests that
    must resolve within their deadline budget); ``p99_target_seconds`` is
    the latency target the p99 burn gauge is normalized by.  Windows follow
    the fast/slow pairing: defaults are a 1-minute window at 14.4× burn and
    a 10-minute window at 6× burn (the classic page-worthy pair, scaled to
    serving-bench time horizons).
    """

    deadline_hit_objective: float = 0.99
    p99_target_seconds: float = 0.25
    windows: tuple = (SLOWindow(60.0, 14.4), SLOWindow(600.0, 6.0))
    min_samples: int = 10

    def __post_init__(self):
        if not 0.0 < self.deadline_hit_objective < 1.0:
            raise ValueError("deadline_hit_objective must be in (0, 1)")
        if self.p99_target_seconds <= 0:
            raise ValueError("p99_target_seconds must be > 0")
        if not self.windows:
            raise ValueError("at least one window is required")
        windows = tuple(
            w if isinstance(w, SLOWindow) else SLOWindow(*w) for w in self.windows
        )
        object.__setattr__(self, "windows", windows)

    @property
    def error_budget(self):
        return 1.0 - self.deadline_hit_objective


class SLOMonitor:
    """Rolling-window SLO tracker with multi-window burn-rate alerting."""

    def __init__(self, config=None, *, clock=time.monotonic, max_samples=65536):
        self.config = config or SLOConfig()
        self._clock = clock
        self._samples = deque(maxlen=int(max_samples))
        self._lock = threading.Lock()
        self._total = 0
        self._total_miss = 0
        self._horizon = max(w.seconds for w in self.config.windows)

    def record(self, latency_seconds, *, deadline_hit=True):
        """Record one finished request outcome."""
        now = self._clock()
        with self._lock:
            self._samples.append((now, float(latency_seconds), bool(deadline_hit)))
            self._total += 1
            if not deadline_hit:
                self._total_miss += 1
            self._prune(now)

    def _prune(self, now):
        horizon = now - self._horizon
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def _window_samples(self, now, seconds):
        cutoff = now - seconds
        return [s for s in self._samples if s[0] >= cutoff]

    @staticmethod
    def _p99(latencies):
        if not latencies:
            return 0.0
        ordered = sorted(latencies)
        rank = max(0, int(0.99 * len(ordered) + 0.999999) - 1)  # nearest-rank
        return ordered[min(rank, len(ordered) - 1)]

    def window_stats(self, seconds):
        """n / hit_rate / burn_rate / p99 / p99_burn for one window."""
        now = self._clock()
        with self._lock:
            self._prune(now)
            samples = self._window_samples(now, float(seconds))
        n = len(samples)
        misses = sum(1 for s in samples if not s[2])
        hit_rate = 1.0 if n == 0 else 1.0 - misses / n
        error_rate = 0.0 if n == 0 else misses / n
        burn = error_rate / self.config.error_budget
        p99 = self._p99([s[1] for s in samples])
        return {
            "window_seconds": float(seconds),
            "n": n,
            "hit_rate": hit_rate,
            "error_rate": error_rate,
            "burn_rate": burn,
            "p99_seconds": p99,
            "p99_burn": p99 / self.config.p99_target_seconds,
        }

    def _windows(self):
        return [self.window_stats(w.seconds) for w in self.config.windows]

    def _burning(self, windows):
        return all(
            stats["n"] >= self.config.min_samples
            and stats["burn_rate"] >= window.burn_threshold
            for window, stats in zip(self.config.windows, windows)
        )

    def alerting(self):
        """True when every configured window burns above its threshold."""
        return self._burning(self._windows())

    def snapshot(self):
        with self._lock:
            total, miss = self._total, self._total_miss
        windows = self._windows()
        return {
            "objective": self.config.deadline_hit_objective,
            "p99_target_seconds": self.config.p99_target_seconds,
            "total": total,
            "total_missed": miss,
            "alerting": self._burning(windows),
            "windows": windows,
        }

    def export(self, telemetry):
        """Mirror the current window stats into Telemetry gauges (the
        gateway and the fleet parent run this as a telemetry collector,
        i.e. whenever their telemetry is read)."""
        windows = self._windows()
        for window, stats in zip(self.config.windows, windows):
            tag = f"{window.seconds:g}s"
            telemetry.gauge(f"slo_hit_rate_{tag}").set(stats["hit_rate"])
            telemetry.gauge(f"slo_burn_rate_{tag}").set(stats["burn_rate"])
            telemetry.gauge(f"slo_p99_burn_{tag}").set(stats["p99_burn"])
        telemetry.gauge("slo_alerting").set(1.0 if self._burning(windows) else 0.0)
