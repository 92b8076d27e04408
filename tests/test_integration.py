"""End-to-end integration tests: simulator -> dataset -> detectors -> evaluation -> edge."""

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.data import StreamReader
from repro.edge import EdgeEstimator, JETSON_XAVIER_NX, StreamingRuntime
from repro.eval import paper_scale_costs, roc_auc_score, study_specs
from repro.pipeline import Pipeline


class TestEndToEndPipeline:
    @pytest.fixture(scope="class")
    def specs(self, tiny_dataset):
        return study_specs(
            n_channels=tiny_dataset.n_channels,
            window=16,
            neural_epochs=2,
            max_train_windows=120,
            varade_feature_maps=8,
            varade_epochs=10,
            varade_warmup_epochs=3,
        )

    def test_varade_full_pipeline(self, tiny_dataset, specs):
        detector = Pipeline.from_spec(specs["VARADE"]).build_detector()
        detector.fit(tiny_dataset.train)
        result = detector.score_stream(tiny_dataset.test)
        scores, labels = result.aligned(tiny_dataset.test_labels)
        auc = roc_auc_score(scores, labels)
        assert 0.0 <= auc <= 1.0
        assert np.isfinite(scores).all()

        # Calibrate a threshold on normal scores and run the streaming runtime.
        normal_scores = detector.score_stream(tiny_dataset.train).valid_scores()
        threshold = ThresholdCalibrator(quantile=0.99).calibrate(normal_scores)
        reader = StreamReader(tiny_dataset.test[:200], labels=tiny_dataset.test_labels[:200],
                              sample_rate=tiny_dataset.config.sample_rate)
        streaming = StreamingRuntime(detector, threshold=threshold).run(reader, max_samples=60)
        assert streaming.samples_scored == 60

        # Estimate the paper-scale deployment of the same method on a board.
        metrics = EdgeEstimator(JETSON_XAVIER_NX).estimate(
            paper_scale_costs()["VARADE"], "VARADE", max_rate_hz=200.0
        )
        assert metrics.inference_frequency_hz > 1.0
        assert metrics.power_w > JETSON_XAVIER_NX.idle_power_w

    def test_outlier_baselines_complete_pipeline(self, tiny_dataset, specs):
        for name in ("kNN", "Isolation Forest"):
            detector = Pipeline.from_spec(specs[name]).build_detector()
            detector.fit(tiny_dataset.train)
            result = detector.score_stream(tiny_dataset.test)
            scores, labels = result.aligned(tiny_dataset.test_labels)
            assert 0.0 <= roc_auc_score(scores, labels) <= 1.0

    def test_train_and_test_share_normalisation(self, tiny_dataset):
        # The scaler is fitted on train only: train spans exactly [-1, 1],
        # the test stream may exceed it (collisions push sensors beyond the
        # training envelope).
        assert tiny_dataset.train.min() == pytest.approx(-1.0)
        assert tiny_dataset.train.max() == pytest.approx(1.0)
        assert tiny_dataset.test.min() < -1.0 or tiny_dataset.test.max() > 1.0

    def test_collision_samples_are_outliers_in_feature_space(self, tiny_dataset):
        """Sanity check of the benchmark itself: anomalies must be separable."""
        labels = tiny_dataset.test_labels.astype(bool)
        acc_columns = [i for i, name in enumerate(tiny_dataset.schema.names) if "Acc" in name]
        anomalous = np.abs(tiny_dataset.test[labels][:, acc_columns]).mean()
        normal = np.abs(tiny_dataset.test[~labels][:, acc_columns]).mean()
        assert anomalous > normal
