"""Regime injection: timestamped mid-run events that change the workload.

A regime event is the scenario-level analogue of the paper's network
"route change": the path the serving/lifecycle stack adapted to no longer
exists, and the adaptive machinery (``DriftMonitor`` → retrain → canary →
promote; per-shard pacers re-probing) must notice and re-learn.  Events
are pure data — ``(at, kind, parameters)`` — applied by the stream
generator in :mod:`repro.workload.scenarios`, so a scenario's entire
request stream (including everything downstream of its events) is
deterministic from its seed.

Kinds (``REGIME_KINDS``):

* ``stats-drift`` — the plan→cost relationship moves: observed costs are
  multiplied by ``cost_factor`` from ``at`` onward (stale statistics,
  changed data volumes).  This is what must trip the drift monitor's
  q-error alarms and drive a retrain+promote.
* ``env-shift`` — the cluster's load distribution moves: ``env_delta`` is
  added (clipped to [0, 1]) to the request environment features, and
  observed costs scale with the native environment model accordingly.
  Detected by the monitor's environment-shift statistic even while
  per-plan rankings stay correct (challenge C1).
* ``schema-growth`` — the catalog grows: the request day jumps forward by
  ``day_jump`` (new temp tables become live) and, optionally, ``mix``
  re-weights the query families to include previously unseen shapes.
* ``skew-flip`` — the tenant popularity ranking reverses: the hot tenant
  goes cold and a cold tenant inherits its Zipf share (and, behind a
  fleet, its shard's pacer suddenly sees the load).

``mix`` is honoured on *any* kind, so a drift event can simultaneously
shift the family mix (the usual real-world shape: new pipeline, new data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["REGIME_KINDS", "RegimeEvent", "RegimeState"]

REGIME_KINDS = ("stats-drift", "env-shift", "schema-growth", "skew-flip")


@dataclass(frozen=True)
class RegimeEvent:
    """One timestamped workload change; ``label`` names the segment that
    starts here (defaults to the kind)."""

    at: float
    kind: str
    label: str | None = None
    #: ``stats-drift``: observed-cost multiplier from this event onward
    #: (compounds with earlier drift events).
    cost_factor: float = 1.0
    #: ``env-shift``: added to the 4 environment features, clipped to [0, 1].
    env_delta: tuple[float, float, float, float] | None = None
    #: ``schema-growth``: request day jumps forward this many days.
    day_jump: int = 0
    #: Optional replacement family-mix weights ``{family_name: weight}``.
    mix: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}; one of {REGIME_KINDS}")
        if self.at < 0.0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.cost_factor <= 0.0:
            raise ValueError(f"cost_factor must be > 0, got {self.cost_factor}")

    @property
    def segment_label(self) -> str:
        return self.label if self.label is not None else self.kind


@dataclass
class RegimeState:
    """The mutable driving state a scenario's event timeline folds over.

    The stream generator walks arrivals in time order, calling
    :meth:`apply` for each event whose timestamp has passed; every request
    then snapshots the current label/env/cost-factor/day/skew."""

    env: tuple[float, float, float, float]
    day: int = 0
    cost_factor: float = 1.0
    flipped: bool = False
    label: str = "steady"
    mix: dict[str, float] = field(default_factory=dict)

    def apply(self, event: RegimeEvent) -> None:
        self.label = event.segment_label
        self.cost_factor *= event.cost_factor
        self.day += event.day_jump
        if event.env_delta is not None:
            shifted = np.clip(
                np.asarray(self.env, dtype=np.float64)
                + np.asarray(event.env_delta, dtype=np.float64),
                0.0,
                1.0,
            )
            self.env = tuple(float(v) for v in shifted)
        if event.kind == "skew-flip":
            self.flipped = not self.flipped
        if event.mix:
            self.mix = dict(event.mix)
