"""Scenario definitions: trace-style workloads the replay engine streams.

A :class:`Scenario` composes the three axes production steering traffic
varies on:

* **what** — :class:`FamilySpec` query families in a weighted mix.  The
  families are TPC-DS-shaped in the MiniDW generator's own vocabulary:
  ``scan`` (1–2 table filter scans, the short interactive tail), ``join``
  (3+ table snowflake joins, where cardinality errors compound and
  steering benefit lives), and ``report`` (aggregation rollups).  Each
  family resolves to a pool of concrete candidate sets at replay time
  (:class:`repro.workload.replay.ScenarioRuntime`), drawn from the same
  ``ProjectWorkload`` templates every existing bench uses — the realistic
  cardinality-error distribution comes from the generator's
  ``stats_availability`` / skew knobs, not from a separate synthetic.
* **who** — a Zipf-skewed tenant population
  (:class:`repro.workload.arrivals.ZipfTenants`).
* **when** — an arrival process (:mod:`repro.workload.arrivals`) plus a
  timeline of regime events (:mod:`repro.workload.regimes`).

:meth:`Scenario.stream` folds all three into a fully materialized
:class:`ScenarioStream` — one :class:`Request` per arrival with its
tenant, family, pool index, environment, cost factor, noise draw, day and
segment label already decided.  Everything is derived from child
generators of one seeded ``numpy.random.Generator``
(:func:`repro.utils.spawn_rng`), so the stream — and therefore a logical
replay of it — is bit-deterministic: ``stream.digest()`` is the identity
the scenario-matrix bench gates on.

The built-in registry (:data:`SCENARIO_BUILDERS`) covers the matrix the
ISSUE names: ``steady`` (the trivial fixed workload every earlier bench
drove, now routed through this generator), ``diurnal``, ``bursty-skewed``
(heavy-tailed on/off bursts over a skewed tenant population with a
mid-run skew flip), ``drift`` (mid-run statistics drift that must drive
retrain → canary → promote), plus ``env-shift`` and ``schema-growth``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.utils import spawn_rng
from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MarkovModulatedArrivals,
    PoissonArrivals,
    ZipfTenants,
)
from repro.workload.regimes import RegimeEvent, RegimeState

__all__ = [
    "FamilySpec",
    "Request",
    "Scenario",
    "ScenarioStream",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "list_scenarios",
]


@dataclass(frozen=True)
class FamilySpec:
    """One query family: a weighted slice of the workload's templates.

    Templates match when their table count lies in ``[min_tables,
    max_tables]`` and (when ``require_agg`` is not ``None``) their
    aggregate presence matches.  ``build_day`` pins the liveness day the
    family's candidate pool is sampled at — a later day exposes temp
    tables created later, which is how ``schema-growth`` introduces
    genuinely new plan shapes."""

    name: str
    weight: float = 1.0
    min_tables: int = 1
    max_tables: int = 99
    require_agg: bool | None = None
    build_day: int | None = None

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ValueError(f"family weight must be >= 0, got {self.weight}")

    def matches(self, template) -> bool:
        n = len(template.tables)
        if not self.min_tables <= n <= self.max_tables:
            return False
        if self.require_agg is not None:
            return (template.aggregate is not None) == self.require_agg
        return True


#: TPC-DS-shaped default mix: short scans dominate counts, multi-way joins
#: carry the steering benefit, rollups keep the aggregate path exercised.
DEFAULT_FAMILIES = (
    FamilySpec("scan", weight=0.45, min_tables=1, max_tables=2),
    FamilySpec("join", weight=0.35, min_tables=3),
    FamilySpec("report", weight=0.20, require_agg=True),
)


class Request(NamedTuple):
    """One fully-decided arrival, ready to fire at a serving target."""

    index: int
    t: float
    tenant: str
    family: str
    pool_index: int
    env: tuple[float, float, float, float]
    cost_factor: float
    noise: float
    day: int
    segment: str


@dataclass(frozen=True)
class Scenario:
    """A named, seeded, replayable workload trace specification."""

    name: str
    description: str
    duration_seconds: float
    arrivals: ArrivalProcess
    tenants: ZipfTenants
    families: tuple[FamilySpec, ...] = DEFAULT_FAMILIES
    events: tuple[RegimeEvent, ...] = ()
    #: Baseline environment; ``None`` means the replay runtime substitutes
    #: its representative environment e_r.
    env: tuple[float, float, float, float] | None = None
    #: Lognormal execution-noise sigma applied to observed costs.
    noise_sigma: float = 0.10
    #: Liveness day requests start on (regime ``day_jump`` moves it).
    base_day: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration_seconds}")
        if not self.families:
            raise ValueError("scenario needs at least one family")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate family names: {names}")
        for event in self.events:
            if event.mix:
                unknown = set(event.mix) - set(names)
                if unknown:
                    raise ValueError(f"event mix names unknown families: {unknown}")

    def stream(
        self,
        pool_sizes: dict[str, int],
        *,
        env: tuple[float, float, float, float] | None = None,
    ) -> "ScenarioStream":
        """Materialize the full request stream.  ``pool_sizes`` gives the
        candidate-pool size per family (from the replay runtime); ``env``
        overrides the baseline environment when the scenario left it to
        the runtime."""
        missing = [f.name for f in self.families if pool_sizes.get(f.name, 0) < 1]
        if missing:
            raise ValueError(f"empty candidate pools for families: {missing}")
        base_env = self.env if self.env is not None else env
        if base_env is None:
            raise ValueError(f"scenario {self.name!r} has no environment baseline")
        root = np.random.default_rng(self.seed)
        rng_arrivals = spawn_rng(root, self.name, "arrivals")
        rng_tenants = spawn_rng(root, self.name, "tenants")
        rng_family = spawn_rng(root, self.name, "family")
        rng_pool = spawn_rng(root, self.name, "pool")
        rng_noise = spawn_rng(root, self.name, "noise")

        times = np.sort(self.arrivals.sample(self.duration_seconds, rng_arrivals))
        ranks = self.tenants.sample_ranks(len(times), rng_tenants)
        noises = np.exp(
            rng_noise.normal(
                -0.5 * self.noise_sigma**2, self.noise_sigma, size=len(times)
            )
        )

        state = RegimeState(
            env=tuple(float(v) for v in base_env),
            day=self.base_day,
            mix={f.name: f.weight for f in self.families},
        )
        pending = sorted(self.events, key=lambda e: e.at)
        applied: list[RegimeEvent] = []
        names = [f.name for f in self.families]
        requests: list[Request] = []
        for i, t in enumerate(times):
            while pending and pending[0].at <= t:
                event = pending.pop(0)
                state.apply(event)
                applied.append(event)
            weights = np.array([state.mix.get(n, 0.0) for n in names])
            total = weights.sum()
            if total <= 0.0:
                raise ValueError(f"regime mix zeroed every family at t={t:.3f}")
            family = names[int(rng_family.choice(len(names), p=weights / total))]
            requests.append(
                Request(
                    index=i,
                    t=float(t),
                    tenant=self.tenants.name(int(ranks[i]), flipped=state.flipped),
                    family=family,
                    pool_index=int(rng_pool.integers(pool_sizes[family])),
                    env=state.env,
                    cost_factor=state.cost_factor,
                    noise=float(noises[i]),
                    day=state.day,
                    segment=state.label,
                )
            )
        # Events past the last arrival still apply (they may close a
        # segment); fold them so segments() sees the full timeline.
        for event in pending:
            state.apply(event)
            applied.append(event)
        return ScenarioStream(scenario=self, requests=requests, events=tuple(applied))


@dataclass(frozen=True)
class ScenarioStream:
    """A materialized scenario: the exact request sequence a replay fires."""

    scenario: Scenario
    requests: list[Request]
    events: tuple[RegimeEvent, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def segments(self) -> list[tuple[str, float, float]]:
        """``(label, start, end)`` per regime segment, in time order."""
        out = []
        start, label = 0.0, "steady"
        for event in self.events:
            out.append((label, start, float(event.at)))
            start, label = float(event.at), event.segment_label
        out.append((label, start, float(self.scenario.duration_seconds)))
        return [(lab, s, e) for lab, s, e in out if e > s]

    def digest(self) -> str:
        """Bit-stable identity of the generated stream (the determinism
        gate: same scenario + seed + pools ⇒ same digest)."""
        h = hashlib.sha256()
        for r in self.requests:
            h.update(
                (
                    f"{r.index}|{r.t.hex()}|{r.tenant}|{r.family}|{r.pool_index}|"
                    f"{tuple(v.hex() for v in map(float, r.env))}|"
                    f"{float(r.cost_factor).hex()}|{r.noise.hex()}|{r.day}|{r.segment}\n"
                ).encode()
            )
        return h.hexdigest()


# -- built-in registry ---------------------------------------------------------


def scenario_steady(
    *, rate: float = 48.0, duration: float = 5.0, tenants: int = 16, seed: int = 11
) -> Scenario:
    """The trivial scenario: the fixed workload every earlier bench drove
    (constant-rate arrivals over the standard family mix, mild skew),
    routed through the generator so all benches share one code path."""
    return Scenario(
        name="steady",
        description="fixed-rate Poisson arrivals, static mix — the legacy bench workload",
        duration_seconds=duration,
        arrivals=PoissonArrivals(rate),
        tenants=ZipfTenants(tenants, s=0.6),
        seed=seed,
    )


def scenario_diurnal(
    *,
    base_rate: float = 40.0,
    amplitude: float = 0.7,
    period: float = 2.0,
    duration: float = 6.0,
    tenants: int = 16,
    seed: int = 12,
) -> Scenario:
    """Sinusoid-modulated load: the nightly-ETL wave compressed so several
    full cycles fit in one replay window."""
    return Scenario(
        name="diurnal",
        description="sinusoid-modulated Poisson arrivals (compressed diurnal cycle)",
        duration_seconds=duration,
        arrivals=DiurnalArrivals(
            base_rate, amplitude=amplitude, period_seconds=period
        ),
        tenants=ZipfTenants(tenants, s=0.8),
        seed=seed,
    )


def scenario_bursty_skewed(
    *,
    on_rate: float = 160.0,
    off_rate: float = 8.0,
    mean_on: float = 0.5,
    mean_off: float = 0.7,
    duration: float = 6.0,
    tenants: int = 32,
    skew: float = 1.3,
    flip_at: float | None = None,
    seed: int = 13,
) -> Scenario:
    """Heavy-tailed on/off bursts from a strongly Zipf-skewed tenant
    population, with a mid-run skew flip: the scenario that pushes one
    shard's pacer into sustained overload while the others idle."""
    duration = float(duration)
    events = (
        RegimeEvent(
            at=duration / 2.0 if flip_at is None else flip_at,
            kind="skew-flip",
            label="skew-flipped",
        ),
    )
    return Scenario(
        name="bursty-skewed",
        description=(
            "Markov-modulated on/off bursts (Pareto ON dwells) over Zipf-skewed "
            "tenants, skew flips mid-run"
        ),
        duration_seconds=duration,
        arrivals=MarkovModulatedArrivals(
            on_rate,
            off_rate=off_rate,
            mean_on_seconds=mean_on,
            mean_off_seconds=mean_off,
            pareto_shape=1.6,
        ),
        tenants=ZipfTenants(tenants, s=skew),
        events=events,
        seed=seed,
    )


def scenario_drift(
    *,
    rate: float = 40.0,
    duration: float = 10.0,
    drift_at: float | None = None,
    cost_factor: float = 4.0,
    tenants: int = 16,
    seed: int = 14,
) -> Scenario:
    """Mid-run statistics drift: observed costs jump by ``cost_factor``
    (stale statistics / changed data volume) — the scenario the lifecycle
    loop must answer with exactly one drift flag → retrain → canary →
    promote."""
    duration = float(duration)
    events = (
        RegimeEvent(
            at=duration * 0.3 if drift_at is None else drift_at,
            kind="stats-drift",
            label="drifted",
            cost_factor=cost_factor,
        ),
    )
    return Scenario(
        name="drift",
        description=f"statistics drift at 30%: observed costs x{cost_factor}",
        duration_seconds=duration,
        arrivals=PoissonArrivals(rate),
        tenants=ZipfTenants(tenants, s=0.6),
        events=events,
        seed=seed,
    )


def scenario_env_shift(
    *,
    rate: float = 40.0,
    duration: float = 10.0,
    shift_at: float | None = None,
    env_delta: tuple[float, float, float, float] = (-0.30, 0.25, 0.30, 0.15),
    tenants: int = 16,
    seed: int = 15,
) -> Scenario:
    """Mid-run environment shift: the cluster load distribution moves away
    from the representative environment e_r (challenge C1); the drift
    monitor's environment statistic must notice even though per-plan
    rankings stay correct."""
    duration = float(duration)
    events = (
        RegimeEvent(
            at=duration * 0.3 if shift_at is None else shift_at,
            kind="env-shift",
            label="shifted",
            env_delta=env_delta,
        ),
    )
    return Scenario(
        name="env-shift",
        description="cluster environment shifts away from e_r at 30%",
        duration_seconds=duration,
        arrivals=PoissonArrivals(rate),
        tenants=ZipfTenants(tenants, s=0.6),
        events=events,
        seed=seed,
    )


def scenario_schema_growth(
    *,
    rate: float = 40.0,
    duration: float = 8.0,
    grow_at: float | None = None,
    day_jump: int = 3,
    tenants: int = 16,
    seed: int = 16,
) -> Scenario:
    """Mid-run schema growth: the request day jumps forward so temp tables
    created later become live, and the mix tilts toward the ``growth``
    family whose pool was built at that later day (previously unseen plan
    shapes)."""
    duration = float(duration)
    families = DEFAULT_FAMILIES + (
        FamilySpec("growth", weight=0.0, build_day=day_jump),
    )
    events = (
        RegimeEvent(
            at=duration * 0.4 if grow_at is None else grow_at,
            kind="schema-growth",
            label="grown",
            day_jump=day_jump,
            mix={"scan": 0.30, "join": 0.25, "report": 0.15, "growth": 0.30},
        ),
    )
    return Scenario(
        name="schema-growth",
        description=f"schema grows at 40%: day +{day_jump}, new plan shapes enter the mix",
        duration_seconds=duration,
        arrivals=PoissonArrivals(rate),
        tenants=ZipfTenants(tenants, s=0.6),
        families=families,
        events=events,
        seed=seed,
    )


SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "steady": scenario_steady,
    "diurnal": scenario_diurnal,
    "bursty-skewed": scenario_bursty_skewed,
    "drift": scenario_drift,
    "env-shift": scenario_env_shift,
    "schema-growth": scenario_schema_growth,
}


def build_scenario(name: str, **overrides) -> Scenario:
    """Instantiate a registered scenario, forwarding keyword overrides to
    its builder (rates, durations, seeds)."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIO_BUILDERS)}"
        ) from None
    return builder(**overrides)


def list_scenarios() -> list[tuple[str, str]]:
    """``(name, description)`` for every registered scenario."""
    return [(name, SCENARIO_BUILDERS[name]().description) for name in SCENARIO_BUILDERS]
