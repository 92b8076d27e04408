"""Tests for the VARADE detector, the shared detector API and calibration."""

import numpy as np
import pytest

from repro.core import (
    CalibratedThreshold,
    ThresholdCalibrator,
    TrainingConfig,
    VaradeConfig,
    VaradeDetector,
)
from repro.eval import roc_auc_score


def synthetic_stream(n_samples=500, n_channels=5, seed=0, anomaly=False):
    """Smooth multivariate sinusoids with motion-dependent (heteroscedastic)
    noise, mimicking the structure of the robot stream; optional burst anomaly.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 50.0
    envelope = 0.03 + 0.25 * np.abs(np.sin(2 * np.pi * 0.08 * t))
    data = np.stack([
        np.sin(2 * np.pi * (0.4 + 0.2 * c) * t + c)
        + envelope * rng.normal(0, 1.0, n_samples)
        for c in range(n_channels)
    ], axis=1)
    labels = np.zeros(n_samples, dtype=np.int64)
    if anomaly:
        start, stop = n_samples // 2, n_samples // 2 + 30
        data[start:stop] += rng.normal(0, 1.5, size=(stop - start, n_channels))
        labels[start:stop] = 1
    return data, labels


@pytest.fixture(scope="module")
def fitted_detector():
    train, _ = synthetic_stream(seed=1)
    config = VaradeConfig(n_channels=5, window=16, base_feature_maps=4, kl_weight=0.1)
    training = TrainingConfig(epochs=10, mean_warmup_epochs=4, learning_rate=3e-3,
                              variance_finetune_epochs=15, max_train_windows=300, seed=0)
    return VaradeDetector(config, training).fit(train)


class TestTraining:
    def test_fit_records_history(self, fitted_detector):
        assert len(fitted_detector.history.epoch_losses) == 10 + 15
        assert fitted_detector.history.wall_time_s > 0
        assert fitted_detector.history.final_loss is not None

    def test_fit_validates_channel_count(self):
        detector = VaradeDetector(VaradeConfig(n_channels=5, window=16, base_feature_maps=4))
        with pytest.raises(ValueError):
            detector.fit(np.zeros((100, 3)))

    def test_score_before_fit_raises(self):
        detector = VaradeDetector(VaradeConfig(n_channels=5, window=16, base_feature_maps=4))
        with pytest.raises(RuntimeError):
            detector.score_stream(np.zeros((50, 5)))


class TestScoring:
    def test_score_stream_alignment(self, fitted_detector):
        test, _ = synthetic_stream(seed=2)
        result = fitted_detector.score_stream(test)
        assert result.scores.shape[0] == test.shape[0]
        # Current-sample alignment: the first score sits at index window-1.
        assert not result.valid_mask[:15].any()
        assert result.valid_mask[15:].all()
        assert np.isnan(result.scores[0])
        assert np.isfinite(result.valid_scores()).all()

    def test_scores_are_positive_variances(self, fitted_detector):
        test, _ = synthetic_stream(seed=3)
        result = fitted_detector.score_stream(test)
        assert (result.valid_scores() > 0).all()

    def test_detects_burst_anomaly_better_than_chance(self, fitted_detector):
        test, labels = synthetic_stream(seed=4, anomaly=True)
        result = fitted_detector.score_stream(test)
        scores, aligned_labels = result.aligned(labels)
        assert roc_auc_score(scores, aligned_labels) > 0.6

    def test_score_window_matches_stream_scoring(self, fitted_detector):
        test, _ = synthetic_stream(seed=5)
        result = fitted_detector.score_stream(test)
        index = 40
        window = test[index - 15:index + 1]
        single = fitted_detector.score_window(window, test[index])
        assert single == pytest.approx(result.scores[index], rel=1e-9)

    def test_forecast_returns_mean_and_variance(self, fitted_detector):
        test, _ = synthetic_stream(seed=6)
        mean, variance = fitted_detector.forecast(test[:16])
        assert mean.shape == (5,)
        assert variance.shape == (5,)
        assert (variance > 0).all()

    def test_short_stream_yields_no_scores(self, fitted_detector):
        result = fitted_detector.score_stream(np.zeros((10, 5)))
        assert not result.valid_mask.any()

    def test_window_length_stream_yields_exactly_one_score(self, fitted_detector):
        """Regression: a window-state detector scores the last sample of the
        first full window, so a stream of exactly `window` rows must yield
        one score (matching the streaming runtimes), not an all-NaN result."""
        from repro.data import StreamReader
        from repro.edge import StreamingRuntime

        test, _ = synthetic_stream(seed=8)
        exact = test[:16]
        result = fitted_detector.score_stream(exact)
        assert result.valid_mask.sum() == 1
        assert result.valid_mask[15]
        streamed = StreamingRuntime(fitted_detector).run(StreamReader(exact))
        np.testing.assert_allclose(result.scores, streamed.scores,
                                   rtol=0, atol=1e-10, equal_nan=True)

    def test_score_windows_batch_matches_score_window_exactly(self, fitted_detector):
        test, _ = synthetic_stream(seed=9)
        windows = np.stack([test[i:i + 16] for i in range(6)])
        targets = test[16:22]
        batch = fitted_detector.score_windows_batch(windows, targets)
        singles = [fitted_detector.score_window(windows[i], targets[i]) for i in range(6)]
        np.testing.assert_array_equal(batch, singles)

    def test_aligned_requires_matching_length(self, fitted_detector):
        test, _ = synthetic_stream(seed=7)
        result = fitted_detector.score_stream(test)
        with pytest.raises(ValueError):
            result.aligned(np.zeros(3))


class TestInferenceCost:
    def test_cost_fields(self, fitted_detector):
        cost = fitted_detector.inference_cost()
        assert cost.flops > 0
        assert cost.parameter_bytes > 0
        assert cost.activation_bytes > 0
        assert 0.0 <= cost.gpu_fraction <= 1.0
        assert cost.memory_traffic_bytes >= cost.parameter_bytes

    def test_paper_configuration_costs_more_than_scaled(self, fitted_detector):
        paper_cost = VaradeDetector(VaradeConfig.paper(86)).inference_cost()
        assert paper_cost.flops > fitted_detector.inference_cost().flops


class TestThresholdCalibration:
    def test_quantile_threshold(self):
        scores = np.linspace(0, 1, 101)
        threshold = ThresholdCalibrator(method="quantile", quantile=0.95).calibrate(scores)
        assert threshold.threshold == pytest.approx(0.95)
        predictions = threshold.classify(np.array([0.5, 0.99]))
        np.testing.assert_array_equal(predictions, [0, 1])

    def test_mad_threshold(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(1.0, 0.1, 1000)
        threshold = ThresholdCalibrator(method="mad", mad_factor=6.0).calibrate(scores)
        assert threshold.threshold > 1.2
        assert threshold.method == "mad"

    def test_ignores_non_finite_scores(self):
        scores = np.array([0.1, 0.2, np.nan, np.inf, 0.3])
        threshold = ThresholdCalibrator(quantile=0.5).calibrate(scores)
        assert np.isfinite(threshold.threshold)

    def test_errors(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(method="other")
        with pytest.raises(ValueError):
            ThresholdCalibrator(quantile=1.5)
        with pytest.raises(ValueError):
            ThresholdCalibrator(mad_factor=0.0)
        with pytest.raises(ValueError):
            ThresholdCalibrator().calibrate(np.array([np.nan]))

    def test_empty_scores_raise_descriptive_error(self):
        """Regression: an empty array must raise, not propagate nan."""
        with pytest.raises(ValueError, match="empty score array"):
            ThresholdCalibrator().calibrate(np.array([]))

    def test_all_nan_scores_raise_descriptive_error(self):
        """Regression: all-NaN scores used to be indistinguishable from empty."""
        with pytest.raises(ValueError, match="all 4 scores are non-finite"):
            ThresholdCalibrator().calibrate(np.full(4, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            ThresholdCalibrator(method="mad").calibrate(
                np.array([np.inf, -np.inf, np.nan])
            )

    def test_threshold_is_never_nan(self):
        """Whatever survives validation must yield a finite threshold."""
        scores = np.array([np.nan, 0.4, np.nan, 0.6])
        for method in ("quantile", "mad"):
            threshold = ThresholdCalibrator(method=method).calibrate(scores)
            assert np.isfinite(threshold.threshold)


class TestDetectorThresholdWiring:
    def test_calibrate_threshold_attaches_and_returns(self, fitted_detector):
        stream, _ = synthetic_stream(n_samples=200, seed=3)
        calibrated = fitted_detector.calibrate_threshold(stream, quantile=0.9)
        try:
            assert fitted_detector.threshold is calibrated
            assert calibrated.method == "quantile"
            assert np.isfinite(calibrated.threshold)
            # The 0.9 quantile of the calibration scores themselves alarms on
            # roughly the top decile.
            scores = fitted_detector.score_stream(stream).valid_scores()
            rate = calibrated.classify(scores).mean()
            assert 0.0 < rate <= 0.2
        finally:
            fitted_detector.set_threshold(None)

    def test_set_threshold_clears(self, fitted_detector):
        fitted_detector.set_threshold(CalibratedThreshold(1.0, "quantile", 0.99))
        assert fitted_detector.threshold is not None
        fitted_detector.set_threshold(None)
        assert fitted_detector.threshold is None

    def test_runtimes_fall_back_to_detector_threshold(self, fitted_detector):
        from repro.edge import StreamingRuntime
        from repro.serve import ScoringSession

        marker = CalibratedThreshold(0.5, "quantile", 0.99)
        fitted_detector.set_threshold(marker)
        try:
            assert StreamingRuntime(fitted_detector)._resolve_threshold() is marker
            assert ScoringSession(fitted_detector).threshold is marker
            explicit = CalibratedThreshold(2.0, "mad", 6.0)
            runtime = StreamingRuntime(fitted_detector, explicit)
            assert runtime._resolve_threshold() is explicit
        finally:
            fitted_detector.set_threshold(None)

    def test_threshold_calibrated_after_runtime_construction_still_fires(self):
        """Regression: the fallback is resolved at run() time, not __init__."""
        from repro.data import StreamReader
        from repro.edge import StreamingRuntime

        stream, _ = synthetic_stream(n_samples=200, seed=9)
        detector = VaradeDetector(
            VaradeConfig(n_channels=5, window=16, base_feature_maps=4),
            TrainingConfig(epochs=2, mean_warmup_epochs=1, learning_rate=3e-3,
                           variance_finetune_epochs=1, max_train_windows=100, seed=0),
        ).fit(stream)
        runtime = StreamingRuntime(detector)          # built before calibration
        detector.calibrate_threshold(stream, quantile=0.5)
        result = runtime.run(StreamReader(stream))
        # With a median threshold roughly half the scored samples must alarm.
        assert result.alarms.sum() > 0.2 * result.samples_scored
