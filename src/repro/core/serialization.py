"""Saving and loading trained predictors.

A deployed LOAM instance must persist its cost predictor between the
offline training pipeline and the online serving path.  Parameters are
stored as a single ``.npz`` archive together with the label transform and
the fitted representative environment, so a reloaded predictor reproduces
the exact serving behaviour.

Format v2 extends the manifest with deployment metadata consumed by the
model lifecycle subsystem (:mod:`repro.lifecycle`): the predictor's
``weights_version`` (so a reloaded model does not restart at version 0 and
collide with stale serving-cache entries), a training-data fingerprint, and
arbitrary metrics recorded at registration time.  v1 archives still load;
their ``weights_version`` defaults to 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.encoding import PlanEncoder
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig

__all__ = ["checkpoint_weights_version", "save_predictor", "load_predictor"]

_FORMAT_VERSION = 2


def save_predictor(
    predictor: AdaptiveCostPredictor,
    path: str | Path,
    *,
    environment_features: tuple[float, float, float, float] | None = None,
    training_fingerprint: str | None = None,
    metrics: dict | None = None,
) -> Path:
    """Serialize a trained predictor (parameters + config + label transform).

    ``environment_features`` optionally stores the fitted representative
    environment e_r so serving needs no access to the training records.
    ``training_fingerprint`` and ``metrics`` are lifecycle manifest fields:
    a digest of the training data and whatever validation numbers the
    registrar wants attached to this checkpoint.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = {
        f"param_{i}": param.data for i, param in enumerate(predictor.module.parameters())
    }
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(predictor.config),
        "log_mean": predictor._log_mean,
        "log_std": predictor._log_std,
        "weights_version": int(getattr(predictor, "weights_version", 0)),
        "encoder": {
            "hash_segments": predictor.encoder.hasher.n_segments,
            "hash_segment_dim": predictor.encoder.hasher.segment_dim,
        },
        "environment_features": list(environment_features) if environment_features else None,
        "training_fingerprint": training_fingerprint,
        "metrics": dict(metrics) if metrics else {},
    }
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)
    return path


def load_predictor(
    path: str | Path,
) -> tuple[AdaptiveCostPredictor, tuple[float, float, float, float] | None]:
    """Restore a predictor saved by :func:`save_predictor`.

    Returns the predictor and the stored representative environment
    features (or ``None`` if none were saved).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta["format_version"] not in (1, _FORMAT_VERSION):
            raise ValueError(
                f"unsupported predictor format {meta['format_version']} in {path}"
            )
        config_dict = dict(meta["config"])
        config_dict["hidden_dims"] = tuple(config_dict["hidden_dims"])
        config = PredictorConfig(**config_dict)
        encoder = PlanEncoder(
            hash_segments=meta["encoder"]["hash_segments"],
            hash_segment_dim=meta["encoder"]["hash_segment_dim"],
        )
        predictor = AdaptiveCostPredictor(encoder, config)
        params = list(predictor.module.parameters())
        for i, param in enumerate(params):
            stored = archive[f"param_{i}"]
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: archive {stored.shape} vs "
                    f"model {param.data.shape}"
                )
            param.data = stored.copy()
        predictor._log_mean = float(meta["log_mean"])
        predictor._log_std = float(meta["log_std"])
        # The module keeps its own copy of the label transform for the
        # node-sum cost head; log_scale itself was restored above.
        predictor.module._log_mean = predictor._log_mean
        predictor.module._log_std = predictor._log_std
        predictor.weights_version = int(meta.get("weights_version", 0))
        env = meta["environment_features"]
    return predictor, tuple(env) if env else None


def checkpoint_weights_version(path: str | Path) -> int:
    """The ``weights_version`` a service booted from ``path`` serves, read
    from the manifest alone (no parameter is decompressed)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        return int(json.loads(str(archive["meta"])).get("weights_version", 0))
