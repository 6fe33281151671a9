"""Tests for predictor save/load round-tripping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.serialization import load_predictor, save_predictor

TINY = PredictorConfig(hidden_dims=(16, 12), embedding_dim=8, epochs=3)


@pytest.fixture(scope="module")
def trained(project_with_history):
    records = project_with_history.repository.deduplicated()[:40]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit([r.plan for r in records], [r.cpu_cost for r in records])
    return predictor, [r.plan for r in records[:8]]


class TestRoundTrip:
    def test_predictions_identical_after_reload(self, trained, tmp_path):
        predictor, plans = trained
        path = save_predictor(predictor, tmp_path / "model.npz")
        loaded, env = load_predictor(path)
        original = predictor.predict(plans, env_features=(0.5, 0.05, 0.5, 0.5))
        restored = loaded.predict(plans, env_features=(0.5, 0.05, 0.5, 0.5))
        assert np.allclose(original, restored)
        assert env is None

    def test_environment_features_persisted(self, trained, tmp_path):
        predictor, _ = trained
        features = (0.6, 0.04, 0.45, 0.55)
        path = save_predictor(predictor, tmp_path / "m", environment_features=features)
        assert path.suffix == ".npz"
        _, env = load_predictor(path)
        assert env == pytest.approx(features)

    def test_config_round_trips(self, trained, tmp_path):
        predictor, _ = trained
        path = save_predictor(predictor, tmp_path / "model.npz")
        loaded, _ = load_predictor(path)
        assert loaded.config == predictor.config
        assert loaded.encoder.dim == predictor.encoder.dim

    def test_label_transform_round_trips(self, trained, tmp_path):
        predictor, _ = trained
        path = save_predictor(predictor, tmp_path / "model.npz")
        loaded, _ = load_predictor(path)
        assert loaded._log_mean == predictor._log_mean
        assert loaded._log_std == predictor._log_std

    def test_weights_version_round_trips(self, trained, tmp_path):
        predictor, _ = trained
        assert predictor.weights_version >= 1  # bumped by fit()
        path = save_predictor(predictor, tmp_path / "model.npz")
        loaded, _ = load_predictor(path)
        assert loaded.weights_version == predictor.weights_version

    def test_corrupted_shape_rejected(self, trained, tmp_path):
        predictor, _ = trained
        path = save_predictor(predictor, tmp_path / "model.npz")
        other = AdaptiveCostPredictor(
            config=PredictorConfig(hidden_dims=(8,), embedding_dim=4, epochs=1)
        )
        import json

        import numpy as np_

        with np_.load(path) as archive:
            meta = json.loads(str(archive["meta"]))
        meta["config"]["hidden_dims"] = [8]
        meta["config"]["embedding_dim"] = 4
        arrays = {f"param_{i}": p.data for i, p in enumerate(predictor.module.parameters())}
        np_.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ValueError):
            load_predictor(path)


class TestManifest:
    def test_load_manifest_without_weights(self, trained, tmp_path):
        predictor, _ = trained
        path = save_predictor(
            predictor,
            tmp_path / "model.npz",
            environment_features=(0.5, 0.05, 0.5, 0.5),
            training_fingerprint="abcd1234abcd1234",
            metrics={"validated_improvement": 0.21},
        )
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
        assert meta["format_version"] == 2
        assert meta["weights_version"] == predictor.weights_version
        assert meta["training_fingerprint"] == "abcd1234abcd1234"
        assert meta["metrics"]["validated_improvement"] == pytest.approx(0.21)
        assert meta["environment_features"] == pytest.approx([0.5, 0.05, 0.5, 0.5])

    def test_v1_archive_still_loads(self, trained, tmp_path):
        """Pre-lifecycle checkpoints (format v1, no weights_version) load
        with weights_version defaulting to 0."""
        import json

        predictor, plans = trained
        path = save_predictor(predictor, tmp_path / "model.npz")
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            arrays = {k: archive[k] for k in archive.files if k != "meta"}
        meta["format_version"] = 1
        for key in ("weights_version", "training_fingerprint", "metrics"):
            meta.pop(key, None)
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        loaded, _ = load_predictor(path)
        assert loaded.weights_version == 0
        env = (0.5, 0.05, 0.5, 0.5)
        assert np.allclose(
            predictor.predict(plans, env_features=env),
            loaded.predict(plans, env_features=env),
        )
