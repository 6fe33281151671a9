"""Distributed execution: turning plans into environment-dependent CPU costs.

The executor reproduces the paper's observed cost statistics:

* stage-level resource allocation with load-dependent slowdown — the CPU
  cost of a stage scales roughly linearly with the load metrics of its
  allocated machines (Figure 5);
* multiplicative log-normal execution noise — recurring plans' costs follow
  a log-normal distribution (Figure 15, validated by a KS test);
* the combination yields relative standard deviations of up to ~50 % for
  recurring queries (Figure 1).
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.warehouse.catalog import Catalog
from repro.warehouse.cluster import Cluster, EnvironmentSample
from repro.warehouse.costmodel import COST, CostConstants, annotate_true_cardinalities
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.stages import StageGraph, decompose_into_stages

__all__ = ["environment_cost_factor", "StageExecution", "ExecutionRecord", "Executor"]

#: Linear sensitivity of stage cost to each normalized load feature:
#: (1 - CPU_IDLE), IO_WAIT, LOAD5 (log-normalized), MEM_USAGE.
ENV_SENSITIVITY = (0.9, 1.5, 0.6, 0.3)


def environment_cost_factor(env: EnvironmentSample) -> float:
    """Multiplicative slowdown induced by the execution environment.

    Roughly linear and monotone in each load metric, matching the paper's
    empirical observation (Section 5, Figure 5) that environmental features
    have a discernible, approximately linear influence on plan costs.
    """
    cpu_idle, io_wait, load5_norm, mem_usage = env.normalized()
    a_busy, a_io, a_load, a_mem = ENV_SENSITIVITY
    return (
        1.0
        + a_busy * (1.0 - cpu_idle)
        + a_io * io_wait
        + a_load * load5_norm
        + a_mem * mem_usage
    )


@dataclass(frozen=True)
class StageExecution:
    """Per-stage execution details, as logged to the query repository."""

    stage_id: int
    intrinsic_cost: float
    environment: EnvironmentSample
    env_factor: float
    noise: float
    parallelism: int

    @property
    def cpu_cost(self) -> float:
        return self.intrinsic_cost * self.env_factor * self.noise


@dataclass
class ExecutionRecord:
    """One completed query execution in the historical repository.

    Mirrors the logging phase of Section 2.1: plan, per-stage execution
    environments, end-to-end CPU cost, and latency.
    """

    query_id: str
    project: str
    template_id: str
    plan: PhysicalPlan
    cpu_cost: float
    latency: float
    day: int
    stages: list[StageExecution] = field(default_factory=list)

    @property
    def is_default(self) -> bool:
        return self.plan.is_default

    @property
    def n_stages(self) -> int:
        return len(self.stages)


class Executor:
    """Executes physical plans on a :class:`Cluster`."""

    def __init__(
        self,
        catalog: Catalog,
        cluster: Cluster,
        *,
        constants: CostConstants = COST,
    ) -> None:
        self.catalog = catalog
        self.cluster = cluster
        self.constants = constants
        #: Observers invoked with every completed :class:`ExecutionRecord` —
        #: the hook the model lifecycle's feedback loop attaches to
        #: (``ModelLifecycle.watch``, see docs/LIFECYCLE.md).  Kept as plain
        #: callables so the warehouse layer stays import-free of serving.
        #: A raising observer never aborts execution or starves the
        #: observers behind it: the exception is swallowed, counted in
        #: :attr:`observer_failures`, detailed in :attr:`observer_errors`,
        #: and reported through :attr:`telemetry` when one is attached.
        self.observers: list[Callable[[ExecutionRecord], None]] = []
        self.observer_failures = 0
        #: Most recent failures as ``(observer name, traceback text)``.
        self.observer_errors: deque[tuple[str, str]] = deque(maxlen=16)
        #: Duck-typed telemetry sink (``.counter(name).inc()``), normally a
        #: :class:`repro.gateway.telemetry.Telemetry`; kept untyped so the
        #: warehouse layer stays import-free of the gateway.
        self.telemetry = None

    def add_observer(self, callback: Callable[[ExecutionRecord], None]) -> None:
        self.observers.append(callback)

    def set_telemetry(self, telemetry) -> None:
        """Report observer failures to ``telemetry`` (any object exposing
        ``counter(name) -> obj`` with ``inc()``)."""
        self.telemetry = telemetry

    def _notify_observers(self, record: ExecutionRecord) -> None:
        for observer in list(self.observers):
            try:
                observer(record)
            except Exception:
                self.observer_failures += 1
                name = getattr(observer, "__qualname__", None) or repr(observer)
                self.observer_errors.append((name, traceback.format_exc(limit=8)))
                if self.telemetry is not None:
                    self.telemetry.counter(
                        "executor_observer_failures_total",
                        "execution observers that raised",
                    ).inc()

    def remove_observer(self, callback: Callable[[ExecutionRecord], None]) -> None:
        self.observers.remove(callback)

    def execute(
        self,
        plan: PhysicalPlan,
        *,
        rng: np.random.Generator,
        day: int = 0,
        noise_sigma: float = 0.12,
    ) -> ExecutionRecord:
        """Run ``plan`` once under the cluster's current (evolving) load."""
        annotate_true_cardinalities(plan.root, plan.query, self.catalog)
        stage_graph = decompose_into_stages(plan)
        stage_execs: list[StageExecution] = []
        latency = 0.0
        for stage in stage_graph.topological_order():
            self.cluster.advance(1)
            parallelism = stage.parallelism(constants=self.constants)
            machines = self.cluster.allocate(parallelism)
            env = self.cluster.stage_environment(machines)
            factor = environment_cost_factor(env)
            # E[lognormal(-s^2/2, s)] = 1: noise is unbiased.
            noise = float(rng.lognormal(-0.5 * noise_sigma**2, noise_sigma))
            intrinsic = stage.intrinsic_cost(constants=self.constants)
            stage_execs.append(
                StageExecution(
                    stage_id=stage.stage_id,
                    intrinsic_cost=intrinsic,
                    environment=env,
                    env_factor=factor,
                    noise=noise,
                    parallelism=parallelism,
                )
            )
            # All plan nodes in the stage share its environment (Section 4).
            features = env.normalized()
            for node in stage.nodes:
                node.env = features
            latency += intrinsic * factor * noise / parallelism
        cpu_cost = sum(se.cpu_cost for se in stage_execs)
        record = ExecutionRecord(
            query_id=plan.query.query_id,
            project=plan.query.project,
            template_id=plan.query.template_id,
            plan=plan,
            cpu_cost=cpu_cost,
            latency=latency,
            day=day,
            stages=stage_execs,
        )
        self._notify_observers(record)
        return record

    def cost_under_environment(
        self,
        plan: PhysicalPlan,
        env: EnvironmentSample,
        *,
        noise: float = 1.0,
    ) -> float:
        """Deterministic cost of ``plan`` when every stage runs under ``env``.

        Used by controlled experiments (Figure 5) and by oracle/deviance
        computations that need C_{E=e}(P) for a pinned environment instance.
        """
        annotate_true_cardinalities(plan.root, plan.query, self.catalog)
        stage_graph = decompose_into_stages(plan)
        factor = environment_cost_factor(env)
        total = 0.0
        for stage in stage_graph.topological_order():
            total += stage.intrinsic_cost(constants=self.constants) * factor * noise
        return total

    def intrinsic_cost(self, plan: PhysicalPlan) -> float:
        """Environment-free CPU work of the plan (the oracle's yardstick)."""
        annotate_true_cardinalities(plan.root, plan.query, self.catalog)
        stage_graph = decompose_into_stages(plan)
        return sum(
            stage.intrinsic_cost(constants=self.constants)
            for stage in stage_graph.topological_order()
        )
