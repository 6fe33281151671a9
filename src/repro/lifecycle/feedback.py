"""Executed-plan outcome feedback: the data the lifecycle loop closes over.

Every plan the warehouse actually runs yields a ``(predicted, observed)``
pair — the only ground truth a deployed cost model ever receives.  The
:class:`FeedbackLog` collects these outcomes from the executor/harness
path into a bounded append-only buffer:

* **bounded** — a ring of ``capacity`` records; the oldest fall off and a
  ``dropped`` counter keeps the loss observable;
* **append-only** — records are immutable; with a ``path`` every append is
  also written as one JSON line, so the on-disk log survives the process
  and can be replayed into a fresh buffer with :meth:`FeedbackLog.load`
  (numeric fields only — plan object references are in-memory extras for
  canary shadow evaluation and are not serialized).

Downstream consumers: :class:`~repro.lifecycle.drift.DriftMonitor` computes
rolling error and environment-distribution statistics over the log, and
:class:`~repro.lifecycle.canary.CanaryController` shadow-evaluates a
candidate model against the incumbent on a held-out slice of it.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.serving.fingerprint import plan_fingerprint

__all__ = ["FeedbackRecord", "FeedbackLog", "plan_digest"]


def plan_digest(plan) -> str:
    """A stable, process-portable digest of a plan's structural fingerprint
    (the tuple fingerprint itself relies on interpreter hashing and object
    identity, which a persisted log cannot)."""
    return hashlib.sha256(repr(plan_fingerprint(plan)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FeedbackRecord:
    """One executed-plan outcome."""

    fingerprint: str
    predicted_cost: float
    observed_cost: float
    env_features: tuple[float, float, float, float] | None
    day: int
    model_version: int
    n_nodes: int
    #: In-memory only: retained so the canary can re-score the plan under
    #: both incumbent and candidate.  Never persisted; ``None`` after a
    #: reload from disk.
    plan: object | None = field(default=None, compare=False, repr=False)

    @property
    def q_error(self) -> float:
        """max(pred/obs, obs/pred), the standard cost-model error metric;
        robust to the heavy-tailed cost scale."""
        pred = max(float(self.predicted_cost), 1e-9)
        obs = max(float(self.observed_cost), 1e-9)
        return max(pred / obs, obs / pred)

    @property
    def relative_error(self) -> float:
        obs = max(float(self.observed_cost), 1e-9)
        return abs(float(self.predicted_cost) - obs) / obs

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "predicted_cost": float(self.predicted_cost),
            "observed_cost": float(self.observed_cost),
            "env_features": list(self.env_features) if self.env_features else None,
            "day": int(self.day),
            "model_version": int(self.model_version),
            "n_nodes": int(self.n_nodes),
        }


class FeedbackLog:
    """Bounded append-only buffer of :class:`FeedbackRecord`."""

    def __init__(self, capacity: int = 4096, *, path: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"feedback capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._records: deque[FeedbackRecord] = deque(maxlen=capacity)
        self.appended = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        plan,
        predicted_cost: float,
        observed_cost: float,
        *,
        env_features: tuple[float, float, float, float] | None = None,
        day: int = 0,
        model_version: int = 0,
    ) -> FeedbackRecord:
        """Append one executed-plan outcome."""
        rec = FeedbackRecord(
            fingerprint=plan_digest(plan),
            predicted_cost=float(predicted_cost),
            observed_cost=float(observed_cost),
            env_features=tuple(float(v) for v in env_features)
            if env_features is not None
            else None,
            day=day,
            model_version=model_version,
            n_nodes=plan.n_nodes,
            plan=plan,
        )
        return self.append(rec)

    def append(self, rec: FeedbackRecord) -> FeedbackRecord:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(rec)
        self.appended += 1
        if self.path is not None:
            with self.path.open("a") as fh:
                fh.write(json.dumps(rec.as_dict()) + "\n")
        return rec

    def records(self) -> list[FeedbackRecord]:
        return list(self._records)

    # -- canary split --------------------------------------------------------

    def held_out(self, fraction: float = 0.25, *, min_records: int = 1) -> list[FeedbackRecord]:
        """A deterministic held-out slice for canary shadow evaluation.

        Records are assigned by fingerprint digest bucket, so every
        occurrence of a recurring plan lands on the same side of the split
        regardless of arrival order (no leakage of a recurring query
        between the slices).  If the digest buckets leave fewer than
        ``min_records``, fall back to the most recent ``fraction`` of the
        log by position.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
        records = list(self._records)
        cut = int(fraction * 10_000)
        held = [r for r in records if int(r.fingerprint[:8], 16) % 10_000 < cut]
        if len(held) < min_records:
            tail = max(min_records, int(np.ceil(fraction * len(records))))
            held = records[-tail:]
        return held

    def scoreable(self, records: list[FeedbackRecord] | None = None) -> list[FeedbackRecord]:
        """The subset whose plan object is still attached (re-scorable)."""
        pool = self.records() if records is None else records
        return [r for r in pool if r.plan is not None]

    def hottest_plans(
        self,
        n: int,
        *,
        default_env: tuple[float, float, float, float] | None = None,
    ) -> list[tuple[object, tuple[float, float, float, float] | None]]:
        """The ``n`` most frequently executed plan shapes still holding a
        plan object, hottest first, as ``(plan, env_features)`` pairs ready
        for :meth:`CostInferenceService.warm_caches` — the post-swap warming
        pass scores these so a promote's first requests for recurring plans
        are cache hits.

        Frequency counts every record of a fingerprint (including reloaded
        ones without plans); the representative plan and environment come
        from the fingerprint's most recent in-memory record, with
        ``default_env`` filling in when that record carried no environment.
        """
        if n <= 0:
            return []
        counts: dict[str, int] = {}
        latest: dict[str, tuple[int, FeedbackRecord]] = {}
        for i, rec in enumerate(self._records):
            counts[rec.fingerprint] = counts.get(rec.fingerprint, 0) + 1
            if rec.plan is not None:
                latest[rec.fingerprint] = (i, rec)
        ranked = sorted(latest, key=lambda fp: (-counts[fp], -latest[fp][0]))
        out = []
        for fp in ranked[:n]:
            rec = latest[fp][1]
            env = rec.env_features if rec.env_features is not None else default_env
            out.append((rec.plan, env))
        return out

    # -- persistence ---------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path, *, capacity: int = 4096) -> "FeedbackLog":
        """Replay a persisted JSONL log into a fresh (bounded) buffer."""
        log = cls(capacity)
        path = Path(path)
        if not path.exists():
            return log
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                env = raw.get("env_features")
                log.append(
                    FeedbackRecord(
                        fingerprint=raw["fingerprint"],
                        predicted_cost=raw["predicted_cost"],
                        observed_cost=raw["observed_cost"],
                        env_features=tuple(env) if env else None,
                        day=raw.get("day", 0),
                        model_version=raw.get("model_version", 0),
                        n_nodes=raw.get("n_nodes", 0),
                    )
                )
        # Resume appending to the same file (set only after replay so the
        # replay itself is not re-written).
        log.path = path
        return log
