"""Versioned model registry: atomic checkpoints and a single ``current`` pointer.

LOAM's deployment claim (challenges C3/C4) is that models are trained
strictly offline and reach serving only through guarded rollout.  The
registry is the ground truth of that rollout: every trained predictor is
written as an immutable, atomically-renamed ``.npz`` checkpoint (the format
of :mod:`repro.core.serialization`, whose manifest carries
``weights_version``, a training-data fingerprint, and registration metrics),
and exactly one version is *current* — the one the serving layer loads.

Layout on disk::

    <root>/
      registry.json     # index: entries, current pointer, promotion history
      v0001.npz         # immutable checkpoints
      v0002.npz
      ...

``registry.json`` and every checkpoint are written to a temporary sibling
and ``os.replace``-d into place, so a crash mid-write never corrupts the
registry and a concurrent reader always sees either the old or the new
state.  Promotion history enables exact :meth:`ModelRegistry.rollback`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.serialization import load_predictor, save_predictor
from repro.serving.fingerprint import plan_fingerprint

__all__ = ["ModelVersion", "ModelRegistry", "training_data_fingerprint"]

_MANIFEST_NAME = "registry.json"


def training_data_fingerprint(plans, costs) -> str:
    """A stable digest of a training set (plan structures + labels).

    Two fits from the same deduplicated history produce the same
    fingerprint, letting the lifecycle skip retraining on unchanged data
    and letting audits tie a served model back to what it saw.
    """
    digest = hashlib.sha256()
    for plan, cost in zip(plans, costs):
        digest.update(repr(plan_fingerprint(plan)).encode())
        digest.update(f"{float(cost):.6e}".encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ModelVersion:
    """One registered checkpoint, as indexed in ``registry.json``."""

    version: int
    path: str
    weights_version: int
    training_fingerprint: str | None = None
    metrics: dict = field(default_factory=dict)
    promoted: bool = False

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "path": self.path,
            "weights_version": self.weights_version,
            "training_fingerprint": self.training_fingerprint,
            "metrics": self.metrics,
            "promoted": self.promoted,
        }


class ModelRegistry:
    """Versioned, crash-safe storage of trained predictors."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._state: dict = {
            "next_version": 1,
            "current": None,
            "history": [],  # previously-current versions, oldest first
            "entries": {},
        }
        manifest = self.root / _MANIFEST_NAME
        if manifest.exists():
            self._state = json.loads(manifest.read_text())

    # -- persistence ---------------------------------------------------------

    def _write_state(self) -> None:
        tmp = self.root / f".{_MANIFEST_NAME}.tmp"
        tmp.write_text(json.dumps(self._state, indent=2, sort_keys=True))
        os.replace(tmp, self.root / _MANIFEST_NAME)

    def _entry(self, version: int) -> ModelVersion:
        try:
            raw = self._state["entries"][str(version)]
        except KeyError:
            raise KeyError(f"no registered model version {version}") from None
        return ModelVersion(**raw)

    # -- registration --------------------------------------------------------

    def register(
        self,
        predictor,
        *,
        environment_features: tuple[float, float, float, float] | None = None,
        training_fingerprint: str | None = None,
        metrics: dict | None = None,
        promote: bool = False,
    ) -> ModelVersion:
        """Write ``predictor`` as the next immutable checkpoint.

        Registration never changes what is served; pass ``promote=True``
        (what the canary does after its gate passes) to also move the
        ``current`` pointer.
        """
        version = int(self._state["next_version"])
        final = self.root / f"v{version:04d}.npz"
        tmp = self.root / f".v{version:04d}.tmp.npz"
        save_predictor(
            predictor,
            tmp,
            environment_features=environment_features,
            training_fingerprint=training_fingerprint,
            metrics=metrics,
        )
        os.replace(tmp, final)
        entry = ModelVersion(
            version=version,
            path=final.name,
            weights_version=int(getattr(predictor, "weights_version", 0)),
            training_fingerprint=training_fingerprint,
            metrics=dict(metrics) if metrics else {},
            promoted=False,
        )
        self._state["entries"][str(version)] = entry.as_dict()
        self._state["next_version"] = version + 1
        self._write_state()
        if promote:
            return self.promote(version)
        return entry

    def promote(self, version: int) -> ModelVersion:
        """Move the ``current`` pointer to ``version`` (must be registered)."""
        entry = self._entry(version)
        current = self._state["current"]
        if current is not None and current != version:
            self._state["history"].append(current)
        self._state["current"] = version
        raw = dict(entry.as_dict(), promoted=True)
        self._state["entries"][str(version)] = raw
        self._write_state()
        return ModelVersion(**raw)

    def rollback(self) -> ModelVersion:
        """Restore the previously current version exactly; returns it."""
        if not self._state["history"]:
            raise RuntimeError("rollback with no promotion history")
        previous = self._state["history"].pop()
        self._state["current"] = previous
        self._write_state()
        return self._entry(previous)

    # -- lookup --------------------------------------------------------------

    @property
    def current(self) -> ModelVersion | None:
        version = self._state["current"]
        return self._entry(version) if version is not None else None

    def versions(self) -> list[ModelVersion]:
        return [self._entry(int(v)) for v in sorted(self._state["entries"], key=int)]

    def load(self, version: int | None = None):
        """Materialize a registered predictor (default: the current one).

        Returns ``(predictor, environment_features)`` exactly as
        :func:`repro.core.serialization.load_predictor` does.
        """
        entry = self.current if version is None else self._entry(version)
        if entry is None:
            raise RuntimeError("registry has no current model")
        return load_predictor(self.root / entry.path)
