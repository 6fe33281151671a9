"""Cluster simulation: machines, dynamic load, and stage scheduling.

This reproduces challenge C1: query execution draws resources from a shared
cluster-wide pool whose per-machine load varies over time, so an identical
plan's CPU cost fluctuates substantially across executions.

Each machine carries the four load metrics the paper encodes (Appendix B.2):

* ``CPU_IDLE`` — fraction of CPU time idle, in [0, 1];
* ``IO_WAIT`` — fraction of CPU time waiting for I/O, in [0, 1];
* ``LOAD5`` — 5-minute load average (unbounded; log-normalized downstream);
* ``MEM_USAGE`` — fraction of memory in use, in [0, 1].

Metrics follow mean-reverting AR(1) processes around per-machine baselines,
mimicking multi-tenant interference.  The scheduler allocates stage
instances preferentially to idle machines, as production load balancers do
(Section 7.2.5 relies on this: cluster-wide averages differ from the loads a
query actually experiences).  State is stored as one ``(n_machines, 4)``
array so a 10 000-query history simulates in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import log_minmax_normalize, spawn_rng

__all__ = ["EnvironmentSample", "Cluster", "LOAD5_MAX", "METRIC_NAMES"]

#: Upper bound used to log-normalize LOAD5 into [0, 1].
LOAD5_MAX = 64.0

METRIC_NAMES = ("CPU_IDLE", "IO_WAIT", "LOAD5", "MEM_USAGE")

_RHO = 0.9
_VOLATILITY = np.array([0.08, 0.02, 1.2, 0.05])
_METRIC_MIN = np.array([0.0, 0.0, 0.0, 0.0])
_METRIC_MAX = np.array([1.0, 1.0, LOAD5_MAX, 1.0])


@dataclass(frozen=True)
class EnvironmentSample:
    """Stage-level execution environment: metrics averaged over the stage's
    execution window and across all allocated machines (Section 4)."""

    cpu_idle: float
    io_wait: float
    load5: float
    mem_usage: float

    def normalized(self) -> tuple[float, float, float, float]:
        """Feature vector in [0, 1]^4: LOAD5 log-normalized, rest direct."""
        return (
            float(min(1.0, max(0.0, self.cpu_idle))),
            float(min(1.0, max(0.0, self.io_wait))),
            log_minmax_normalize(self.load5, 0.0, LOAD5_MAX),
            float(min(1.0, max(0.0, self.mem_usage))),
        )

    @staticmethod
    def from_normalized(features: tuple[float, float, float, float]) -> "EnvironmentSample":
        """Inverse of :meth:`normalized` (LOAD5 de-log-normalized)."""
        cpu_idle, io_wait, load5_norm, mem_usage = features
        load5 = float(np.expm1(load5_norm * np.log1p(LOAD5_MAX)))
        return EnvironmentSample(cpu_idle, io_wait, load5, mem_usage)

    @staticmethod
    def mean_of(samples: list["EnvironmentSample"]) -> "EnvironmentSample":
        if not samples:
            raise ValueError("cannot average zero environment samples")
        return EnvironmentSample(
            cpu_idle=float(np.mean([s.cpu_idle for s in samples])),
            io_wait=float(np.mean([s.io_wait for s in samples])),
            load5=float(np.mean([s.load5 for s in samples])),
            mem_usage=float(np.mean([s.mem_usage for s in samples])),
        )


class Cluster:
    """A pool of homogeneous machines plus the Fuxi-like stage scheduler.

    Machine hardware is intentionally homogeneous (the paper's stated
    justification for omitting hardware features); heterogeneity comes from
    load baselines only.
    """

    def __init__(self, n_machines: int = 200, *, rng: np.random.Generator | None = None) -> None:
        if n_machines < 1:
            raise ValueError("cluster needs at least one machine")
        rng = rng or np.random.default_rng(0)
        self._rng = spawn_rng(rng, "cluster")
        init = spawn_rng(rng, "cluster-init")
        n = n_machines
        base = np.empty((n, 4))
        base[:, 0] = np.clip(init.beta(4.0, 4.0, size=n), 0.05, 0.95)  # CPU_IDLE
        base[:, 1] = np.clip(init.beta(1.2, 20.0, size=n), 0.0, 0.6)  # IO_WAIT
        base[:, 2] = np.clip(init.gamma(2.0, 3.0, size=n), 0.1, LOAD5_MAX)  # LOAD5
        base[:, 3] = np.clip(init.beta(5.0, 4.0, size=n), 0.05, 0.98)  # MEM_USAGE
        self._base = base
        self._state = base.copy()

    @property
    def n_machines(self) -> int:
        return self._base.shape[0]

    def advance(self, ticks: int = 1) -> None:
        """Let multi-tenant background load evolve (one tick ~ 20 s)."""
        for _ in range(ticks):
            noise = self._rng.normal(0.0, 1.0, size=self._state.shape) * _VOLATILITY
            self._state = self._base + _RHO * (self._state - self._base) + noise
            np.clip(self._state, _METRIC_MIN, _METRIC_MAX, out=self._state)

    def allocate(self, n_instances: int) -> np.ndarray:
        """Allocate machine indices for a stage, preferring idle machines.

        Selection is a softmax over ``CPU_IDLE`` so busy machines are not
        excluded outright; the allocation itself adds load to the chosen
        machines (a query's own footprint).
        """
        if n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        idles = self._state[:, 0]
        weights = np.exp(3.0 * idles)
        weights /= weights.sum()
        n_distinct = min(n_instances, self.n_machines)
        chosen = self._rng.choice(self.n_machines, size=n_distinct, replace=False, p=weights)
        intensity = min(1.0, n_instances / max(1, self.n_machines)) + 0.1
        self._state[chosen, 0] -= 0.25 * intensity
        self._state[chosen, 1] += 0.05 * intensity
        self._state[chosen, 2] += 4.0 * intensity
        self._state[chosen, 3] += 0.10 * intensity
        np.clip(self._state, _METRIC_MIN, _METRIC_MAX, out=self._state)
        return chosen

    def _sample_rows(self, rows: np.ndarray) -> EnvironmentSample:
        mean = self._state[rows].mean(axis=0)
        return EnvironmentSample(
            cpu_idle=float(mean[0]),
            io_wait=float(mean[1]),
            load5=float(mean[2]),
            mem_usage=float(mean[3]),
        )

    def stage_environment(self, machine_indices: np.ndarray) -> EnvironmentSample:
        """The logged stage-level environment: average across allocations."""
        if len(machine_indices) == 0:
            raise ValueError("stage must be allocated at least one machine")
        return self._sample_rows(np.asarray(machine_indices))

    def cluster_environment(self) -> EnvironmentSample:
        """Cluster-wide average (what the LOAM-CE/CB baselines consume)."""
        return self._sample_rows(np.arange(self.n_machines))
