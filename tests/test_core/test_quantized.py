"""Quantized-VARADE accuracy and contract tests.

Documented quantization tolerances (enforced here and reported by
``benchmarks/bench_quantized_inference.py``):

* int8 scores track float scores within ``QUANT_SCORE_RTOL`` relative error
  on in-distribution data;
* int8 AUC-ROC on the synthetic anomaly benchmark is within
  ``QUANT_AUC_TOLERANCE`` (2 points) of the float detector's.
"""

import numpy as np
import pytest

from repro.core import VaradeConfig, TrainingConfig, VaradeDetector
from repro.core.quantized import QuantizedVaradeDetector, coerce_calibration_windows
from repro.data import build_synthetic_anomaly_dataset
from repro.data.windowing import sliding_windows
from repro.eval import roc_auc_score

#: documented tolerance of int8 scores relative to float scores on
#: in-distribution (normal) data.
QUANT_SCORE_RTOL = 0.15
#: documented AUC tolerance (2 points) of int8 vs float.
QUANT_AUC_TOLERANCE = 0.02

N_CHANNELS = 5


@pytest.fixture(scope="module")
def anomaly_dataset():
    return build_synthetic_anomaly_dataset(n_channels=N_CHANNELS, seed=7)


@pytest.fixture(scope="module")
def float_detector(anomaly_dataset):
    config = VaradeConfig(n_channels=N_CHANNELS, window=16, base_feature_maps=4)
    training = TrainingConfig(learning_rate=3e-3, epochs=10, mean_warmup_epochs=4,
                              variance_finetune_epochs=15, max_train_windows=400,
                              seed=0)
    return VaradeDetector(config, training).fit(anomaly_dataset.train)


@pytest.fixture(scope="module")
def quantized_detector(float_detector, anomaly_dataset):
    return float_detector.quantize(anomaly_dataset.train)


class TestQuantizedContract:
    def test_quantize_returns_drop_in_detector(self, quantized_detector, float_detector):
        assert isinstance(quantized_detector, QuantizedVaradeDetector)
        assert quantized_detector.window == float_detector.window
        assert quantized_detector.scores_current_sample
        assert quantized_detector.name == "VARADE-int8"

    def test_fit_is_refused(self, quantized_detector, anomaly_dataset):
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized_detector.fit(anomaly_dataset.train)

    def test_score_window_matches_batch(self, quantized_detector, anomaly_dataset):
        test = anomaly_dataset.test
        window = quantized_detector.window
        windows = sliding_windows(test, window, stride=1)[:16]
        targets = test[window - 1:window - 1 + 16]
        batch = quantized_detector.score_windows_batch(windows, targets)
        singles = np.array([
            quantized_detector.score_window(windows[i], targets[i]) for i in range(16)
        ])
        np.testing.assert_array_equal(singles, batch)

    def test_unsupported_detectors_raise(self, anomaly_dataset):
        from repro.baselines.knn import KNNConfig, KNNDetector

        detector = KNNDetector(KNNConfig(n_channels=N_CHANNELS)).fit(anomaly_dataset.train)
        with pytest.raises(NotImplementedError, match="quantization"):
            detector.quantize(anomaly_dataset.train)

    def test_calibration_input_shapes(self, float_detector, anomaly_dataset):
        window = float_detector.window
        windows = coerce_calibration_windows(anomaly_dataset.train, window, N_CHANNELS)
        assert windows.shape[1:] == (window, N_CHANNELS)
        with pytest.raises(ValueError, match="at least one full window"):
            coerce_calibration_windows(anomaly_dataset.train[:3], window, N_CHANNELS)
        with pytest.raises(ValueError, match="calibration"):
            coerce_calibration_windows(np.zeros((4,)), window, N_CHANNELS)

    def test_inference_cost_is_int8_and_smaller(self, quantized_detector, float_detector):
        quantized = quantized_detector.inference_cost()
        float_cost = float_detector.inference_cost()
        assert quantized.compute_dtype == "int8"
        assert quantized.parameter_bytes < float_cost.parameter_bytes / 2
        assert quantized.flops == pytest.approx(float_cost.flops, rel=0.05)

    def test_edge_estimator_rewards_int8(self, quantized_detector, float_detector):
        from repro.edge import EdgeEstimator, JETSON_AGX_ORIN

        estimator = EdgeEstimator(JETSON_AGX_ORIN)
        float_metrics = estimator.estimate(float_detector.inference_cost(), "VARADE")
        int8_metrics = estimator.estimate(quantized_detector.inference_cost(),
                                          "VARADE-int8")
        assert int8_metrics.inference_latency_s <= float_metrics.inference_latency_s
        assert int8_metrics.ram_mb <= float_metrics.ram_mb


class TestQuantizedAccuracy:
    def test_scores_within_documented_rtol(self, float_detector, quantized_detector,
                                           anomaly_dataset):
        """In-distribution drift: int8 tracks float on normal data.

        The rtol contract applies to in-distribution inputs (here: the clean
        training stream).  Anomalous windows are out of distribution by
        definition -- their absolute drift is unbounded, and what matters
        there is the *ranking*, covered by the AUC tolerance below.
        """
        clean = anomaly_dataset.train
        float_result = float_detector.score_stream(clean)
        int8_result = quantized_detector.score_stream(clean)
        np.testing.assert_array_equal(float_result.valid_mask, int8_result.valid_mask)
        float_scores = float_result.valid_scores()
        int8_scores = int8_result.valid_scores()
        relative = np.abs(int8_scores - float_scores) / np.abs(float_scores)
        assert relative.max() <= QUANT_SCORE_RTOL, (
            f"int8 score drift {relative.max():.3f} exceeds the documented "
            f"rtol {QUANT_SCORE_RTOL}"
        )

    def test_auc_within_two_points_of_float(self, float_detector, quantized_detector,
                                            anomaly_dataset):
        test, labels = anomaly_dataset.test, anomaly_dataset.test_labels
        float_scores, float_labels = float_detector.score_stream(test).aligned(labels)
        int8_scores, int8_labels = quantized_detector.score_stream(test).aligned(labels)
        float_auc = roc_auc_score(float_scores, float_labels)
        int8_auc = roc_auc_score(int8_scores, int8_labels)
        # The float detector must actually detect before the comparison means
        # anything.
        assert float_auc > 0.8, f"float VARADE AUC only {float_auc:.3f}"
        assert abs(float_auc - int8_auc) <= QUANT_AUC_TOLERANCE, (
            f"int8 AUC {int8_auc:.3f} deviates from float AUC {float_auc:.3f} "
            f"by more than {QUANT_AUC_TOLERANCE}"
        )

    def test_fleet_serves_quantized_detector_with_parity(self, quantized_detector,
                                                         anomaly_dataset):
        """Quantized fleet serving: batched == sequential, bit for bit."""
        from repro.data import StreamReader
        from repro.edge import StreamingRuntime
        from repro.serve import MicroBatcher, ScoringSession, replay_streams

        streams = [anomaly_dataset.test[offset:offset + 150]
                   for offset in (0, 100, 200, 300)]
        sessions = [ScoringSession(quantized_detector, f"stream-{index}",
                                   incremental=False)
                    for index in range(len(streams))]
        batcher = MicroBatcher(quantized_detector, max_batch=len(streams),
                               max_delay_ms=0.0)
        scored = sum(1 for _ in replay_streams(sessions, streams, batcher))
        assert scored == batcher.scored > 0
        for index, stream in enumerate(streams):
            sequential = StreamingRuntime(quantized_detector).run(StreamReader(stream))
            np.testing.assert_array_equal(
                sessions[index].result().scores, sequential.scores,
                err_msg=f"stream {index}: quantized fleet scores diverge"
            )
