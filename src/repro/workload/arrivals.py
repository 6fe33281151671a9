"""Arrival processes: *when* scenario requests hit the serving path.

Every bench before this package drove the serving stack at one fixed
cadence (a constant open-loop rate or closed-loop saturation).  Production
steering traffic is nothing like that: MaxCompute-style warehouses see
strong diurnal cycles (the nightly ETL wave), and per-tenant submission is
bursty with heavy-tailed on-periods (one misbehaving pipeline retries a
DAG of queries in a tight loop).  The three processes here reproduce those
shapes, each *deterministic given a* ``numpy.random.Generator`` so a
scenario replays bit-identically from its seed:

* :class:`PoissonArrivals` — homogeneous Poisson at ``rate``; the trivial
  ``steady`` scenario every existing bench implicitly assumed;
* :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose rate
  follows a sinusoid (``base_rate × (1 + amplitude·sin)``), sampled by
  Lewis–Shedler thinning against the peak rate;
* :class:`MarkovModulatedArrivals` — a two-state Markov-modulated Poisson
  process (on/off).  Dwell times are exponential by default; a
  ``pareto_shape`` ≤ ~2 makes the ON durations heavy-tailed (infinite
  variance below 2), which is what pushes the inter-arrival CV well past
  the Poisson baseline of 1.

:class:`ZipfTenants` maps arrivals onto a skewed tenant population (rank
frequencies ∝ ``rank^-s``), reusing the catalog's Zipf helpers from
:mod:`repro.utils`; the ``skew-flip`` regime event reverses the rank→tenant
mapping mid-run so a previously cold tenant suddenly hashes hot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import zipf_pmf

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "MarkovModulatedArrivals",
    "ZipfTenants",
]


class ArrivalProcess:
    """Base contract: ``sample(duration, rng)`` returns sorted arrival
    times (float64 seconds) in ``[0, duration)``."""

    def sample(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: exponential inter-arrivals at ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError(f"arrival rate must be > 0, got {self.rate}")

    def sample(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        # Draw in blocks of the expected count (+5 sigma) until past the
        # horizon; one draw almost always suffices.
        expected = self.rate * duration
        block = max(16, int(expected + 5.0 * np.sqrt(expected + 1.0)))
        times: list[np.ndarray] = []
        t = 0.0
        while t < duration:
            gaps = rng.exponential(1.0 / self.rate, size=block)
            chunk = t + np.cumsum(gaps)
            times.append(chunk)
            t = float(chunk[-1])
        merged = np.concatenate(times)
        return merged[merged < duration]


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoid-modulated Poisson: ``λ(t) = base_rate (1 + A sin(2πt/T + φ))``.

    Sampled by thinning: candidates from a homogeneous process at the peak
    rate ``base_rate (1 + A)`` are kept with probability ``λ(t)/peak``,
    which is exact for any bounded intensity (Lewis & Shedler 1979).
    """

    base_rate: float
    amplitude: float = 0.6
    period_seconds: float = 86_400.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0.0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_seconds <= 0.0:
            raise ValueError(f"period must be > 0, got {self.period_seconds}")

    def intensity(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.base_rate * (
            1.0
            + self.amplitude
            * np.sin(2.0 * np.pi * np.asarray(t) / self.period_seconds + self.phase)
        )

    def sample(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        peak = self.base_rate * (1.0 + self.amplitude)
        candidates = PoissonArrivals(peak).sample(duration, rng)
        keep = rng.random(len(candidates)) < np.asarray(self.intensity(candidates)) / peak
        return candidates[keep]


@dataclass(frozen=True)
class MarkovModulatedArrivals(ArrivalProcess):
    """Two-state on/off MMPP with optionally heavy-tailed ON dwell times.

    The process alternates ON periods (Poisson at ``on_rate``) and OFF
    periods (Poisson at ``off_rate``, usually ≪ on).  Dwells are
    exponential with the given means; with ``pareto_shape`` set the ON
    dwells are Pareto distributed with that tail index (scaled to keep the
    requested mean), so a few very long bursts dominate — the heavy tail
    that drives inter-arrival CV far above 1.
    """

    on_rate: float
    off_rate: float = 0.0
    mean_on_seconds: float = 1.0
    mean_off_seconds: float = 1.0
    pareto_shape: float | None = None

    def __post_init__(self) -> None:
        if self.on_rate <= 0.0:
            raise ValueError(f"on_rate must be > 0, got {self.on_rate}")
        if self.off_rate < 0.0:
            raise ValueError(f"off_rate must be >= 0, got {self.off_rate}")
        if self.mean_on_seconds <= 0.0 or self.mean_off_seconds <= 0.0:
            raise ValueError("dwell means must be > 0")
        if self.pareto_shape is not None and self.pareto_shape <= 1.0:
            raise ValueError(
                f"pareto_shape must be > 1 (finite mean), got {self.pareto_shape}"
            )

    def _on_dwell(self, rng: np.random.Generator) -> float:
        if self.pareto_shape is None:
            return float(rng.exponential(self.mean_on_seconds))
        # Pareto with tail index α and scale x_m has mean x_m·α/(α−1);
        # solve x_m from the requested mean so only the tail shape changes.
        alpha = self.pareto_shape
        x_m = self.mean_on_seconds * (alpha - 1.0) / alpha
        return float(x_m * (1.0 + rng.pareto(alpha)))

    def sample(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        times: list[np.ndarray] = []
        t = 0.0
        on = True  # bursts lead: scenario t=0 lands mid-wave, like a replay
        while t < duration:
            if on:
                dwell = self._on_dwell(rng)
                rate = self.on_rate
            else:
                dwell = float(rng.exponential(self.mean_off_seconds))
                rate = self.off_rate
            end = min(t + dwell, duration)
            if rate > 0.0:
                cursor = t
                chunk = []
                while True:
                    cursor += float(rng.exponential(1.0 / rate))
                    if cursor >= end:
                        break
                    chunk.append(cursor)
                if chunk:
                    times.append(np.asarray(chunk))
            t += dwell
            on = not on
        if not times:
            return np.zeros(0)
        return np.concatenate(times)


@dataclass(frozen=True)
class ZipfTenants:
    """A Zipf-skewed tenant population: rank ``r`` submits with probability
    ∝ ``r^-s`` (s=0 is uniform).  ``flipped`` reverses the rank→tenant
    mapping — the ``skew-flip`` regime, where the hot tenant goes cold and
    a cold one takes over its traffic share (and its shard)."""

    n: int
    s: float = 1.1
    prefix: str = "tenant"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"tenant count must be >= 1, got {self.n}")
        if self.s < 0.0:
            raise ValueError(f"zipf exponent must be >= 0, got {self.s}")

    def pmf(self) -> np.ndarray:
        return np.array([zipf_pmf(r, self.n, self.s) for r in range(1, self.n + 1)])

    def name(self, rank: int, *, flipped: bool = False) -> str:
        index = (self.n - 1 - rank) if flipped else rank
        return f"{self.prefix}-{index}"

    def sample_ranks(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` tenant ranks (0-based, 0 = hottest) drawn from the
        Zipf pmf."""
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        return rng.choice(self.n, size=count, p=self.pmf())
