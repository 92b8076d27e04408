"""Tests for the five baseline detectors and the study presets."""

import numpy as np
import pytest

from repro.baselines import (
    ARLSTMConfig,
    ARLSTMDetector,
    AutoencoderConfig,
    AutoencoderDetector,
    GBRFConfig,
    GBRFDetector,
    IsolationForestConfig,
    IsolationForestDetector,
    KNNConfig,
    KNNDetector,
)
from repro.eval import DETECTOR_NAMES, roc_auc_score, study_specs
from repro.pipeline import Pipeline, SpecError


def synthetic_stream(n_samples=360, n_channels=4, seed=0, anomaly=False):
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 40.0
    data = np.stack([
        np.sin(2 * np.pi * (0.3 + 0.15 * c) * t + 0.5 * c) + rng.normal(0, 0.05, n_samples)
        for c in range(n_channels)
    ], axis=1)
    labels = np.zeros(n_samples, dtype=np.int64)
    if anomaly:
        start, stop = n_samples // 2, n_samples // 2 + 25
        data[start:stop] += rng.normal(0, 2.0, size=(stop - start, n_channels))
        labels[start:stop] = 1
    return data, labels


TRAIN, _ = synthetic_stream(seed=1)
TEST, LABELS = synthetic_stream(seed=2, anomaly=True)


def check_detector(detector, min_auc=0.6):
    """Common contract: fit, score, alignment, anomaly separation, cost."""
    detector.fit(TRAIN)
    result = detector.score_stream(TEST)
    assert result.scores.shape[0] == TEST.shape[0]
    scores, labels = result.aligned(LABELS)
    assert np.isfinite(scores).all()
    auc = roc_auc_score(scores, labels)
    assert auc > min_auc, f"{detector.name}: AUC {auc:.3f} too low"
    cost = detector.inference_cost()
    assert cost.flops > 0 and cost.parameter_bytes > 0
    return result


class TestARLSTM:
    def test_end_to_end(self):
        config = ARLSTMConfig(n_channels=4, window=8, hidden_size=12, num_layers=1,
                              fc_size=16, epochs=3, max_train_windows=150, seed=0)
        check_detector(ARLSTMDetector(config), min_auc=0.7)

    def test_predict_next_shape(self):
        config = ARLSTMConfig(n_channels=4, window=8, hidden_size=8, num_layers=1,
                              epochs=1, max_train_windows=60)
        detector = ARLSTMDetector(config).fit(TRAIN)
        assert detector.predict_next(TEST[:8]).shape == (1, 4)

    def test_paper_configuration(self):
        config = ARLSTMConfig.paper(86)
        assert config.num_layers == 5 and config.hidden_size == 256
        detector = ARLSTMDetector.paper_configuration(86)
        assert detector.inference_cost().gpu_fraction > 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ARLSTMConfig(n_channels=0)
        with pytest.raises(ValueError):
            ARLSTMConfig(n_channels=4, window=1)
        with pytest.raises(ValueError):
            ARLSTMConfig(n_channels=4, num_layers=0)

    def test_fit_validates_channels(self):
        detector = ARLSTMDetector(ARLSTMConfig(n_channels=4, window=8, epochs=1))
        with pytest.raises(ValueError):
            detector.fit(np.zeros((50, 3)))


class TestAutoencoder:
    def test_end_to_end(self):
        config = AutoencoderConfig(n_channels=4, window=16, base_feature_maps=8,
                                   latent_feature_maps=8, n_blocks=4, epochs=4,
                                   max_train_windows=200, seed=0)
        check_detector(AutoencoderDetector(config), min_auc=0.7)

    def test_reconstruction_shape(self):
        config = AutoencoderConfig(n_channels=4, window=16, base_feature_maps=4,
                                   latent_feature_maps=4, n_blocks=4, epochs=1,
                                   max_train_windows=50)
        detector = AutoencoderDetector(config).fit(TRAIN)
        reconstruction = detector.reconstruct(TEST[:16])
        assert reconstruction.shape == (1, 16, 4)

    def test_window_must_match_downsampling(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(n_channels=4, window=20, n_blocks=6)
        with pytest.raises(ValueError):
            AutoencoderConfig(n_channels=4, window=16, n_blocks=3)

    def test_paper_configuration_has_six_blocks(self):
        assert AutoencoderConfig.paper(86).n_blocks == 6


class TestGBRF:
    def test_end_to_end(self):
        config = GBRFConfig(n_channels=4, window=8, n_estimators=10, context_samples=3,
                            max_train_windows=150, seed=0)
        check_detector(GBRFDetector(config), min_auc=0.7)

    def test_tap_indices_include_most_recent(self):
        config = GBRFConfig(n_channels=4, window=8, context_samples=3)
        detector = GBRFDetector(config)
        assert detector._tap_indices[-1] == 7

    def test_paper_configuration(self):
        assert GBRFConfig.paper(86).n_estimators == 30

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GBRFConfig(n_channels=4, context_samples=0)
        with pytest.raises(ValueError):
            GBRFConfig(n_channels=4, n_estimators=0)


class TestKNNDetector:
    def test_end_to_end(self):
        config = KNNConfig(n_channels=4, n_neighbors=5, max_reference_points=300, seed=0)
        check_detector(KNNDetector(config), min_auc=0.8)

    def test_paper_configuration(self):
        config = KNNConfig.paper(86)
        assert config.n_neighbors == 5 and config.aggregation == "max"
        cost = KNNDetector(config).inference_cost()
        assert cost.gpu_fraction == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KNNConfig(n_channels=4, n_neighbors=0)
        with pytest.raises(ValueError):
            KNNConfig(n_channels=4, n_neighbors=10, max_reference_points=5)


class TestIsolationForestDetector:
    def test_end_to_end(self):
        config = IsolationForestConfig(n_channels=4, n_estimators=40, seed=0)
        check_detector(IsolationForestDetector(config), min_auc=0.65)

    def test_paper_configuration(self):
        config = IsolationForestConfig.paper(86)
        assert config.n_estimators == 100 and config.contamination == pytest.approx(0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IsolationForestConfig(n_channels=0)


class TestRegistry:
    def test_builds_all_six_detectors(self):
        specs = study_specs(n_channels=4, window=16, neural_epochs=1,
                            max_train_windows=50, varade_epochs=1)
        assert tuple(specs) == DETECTOR_NAMES
        for name, spec in specs.items():
            detector = Pipeline.from_spec(spec).build_detector()
            assert detector.name == name
            assert detector.config.n_channels == 4

    def test_include_filter(self):
        specs = study_specs(n_channels=4, window=16)
        kinds = [specs[name].detector.kind for name in ("VARADE", "kNN")]
        assert kinds == ["varade", "knn"]

    def test_unknown_detector_raises(self):
        with pytest.raises(KeyError):
            study_specs(n_channels=4, window=16)["nonexistent"]

    def test_validation(self):
        """A bad stream shape is rejected when the preset's config is built
        (kNN and Isolation Forest score single samples: no window)."""
        for spec in study_specs(n_channels=0).values():
            with pytest.raises(SpecError):
                Pipeline.from_spec(spec).build_detector()
        short = study_specs(n_channels=4, window=1)
        for name in ("AR-LSTM", "GBRF", "AE", "VARADE"):
            with pytest.raises(SpecError):
                Pipeline.from_spec(short[name]).build_detector()

    def test_detector_names_constant_is_complete(self):
        assert set(DETECTOR_NAMES) == {"AR-LSTM", "GBRF", "AE", "kNN",
                                       "Isolation Forest", "VARADE"}
