"""Tests for the Isolation Forest."""

import numpy as np
import pytest

from repro.trees import IsolationForest, average_path_length


class TestAveragePathLength:
    def test_known_values(self):
        assert float(average_path_length(1)) == pytest.approx(0.0)
        assert float(average_path_length(2)) == pytest.approx(1.0)
        # c(n) grows roughly like 2 ln(n)
        assert float(average_path_length(256)) == pytest.approx(
            2 * (np.log(255) + 0.5772156649) - 2 * 255 / 256, rel=1e-6
        )

    def test_monotonically_increasing(self):
        values = average_path_length(np.array([2, 4, 16, 64, 256, 1024]))
        assert np.all(np.diff(values) > 0)


class TestIsolationForest:
    def test_outliers_score_higher_than_inliers(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0.0, 1.0, size=(500, 2))
        forest = IsolationForest(n_estimators=50, max_samples=128, rng=rng).fit(inliers)
        outliers = np.array([[8.0, 8.0], [-7.0, 9.0], [10.0, -10.0]])
        inlier_scores = forest.score_samples(inliers[:100])
        outlier_scores = forest.score_samples(outliers)
        assert outlier_scores.min() > np.quantile(inlier_scores, 0.9)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(300, 4))
        forest = IsolationForest(n_estimators=20, rng=rng).fit(data)
        scores = forest.score_samples(data)
        assert np.all((scores > 0) & (scores < 1))

    def test_predict_flags_contamination_fraction(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(400, 3))
        forest = IsolationForest(n_estimators=30, contamination=0.1, rng=rng).fit(data)
        predictions = forest.predict(data)
        flagged = np.mean(predictions == -1)
        assert 0.02 < flagged < 0.2

    def test_single_query_row(self):
        rng = np.random.default_rng(3)
        forest = IsolationForest(n_estimators=10, rng=rng).fit(rng.normal(size=(100, 2)))
        assert forest.score_samples(np.zeros(2)).shape == (1,)

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            IsolationForest().score_samples(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            IsolationForest().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_raises(self):
        forest = IsolationForest(n_estimators=3).fit(np.random.default_rng(5).normal(size=(50, 2)))
        with pytest.raises(ValueError, match="expected 2 features"):
            forest.score_samples(np.zeros((1, 4)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            IsolationForest(n_estimators=0)
        with pytest.raises(ValueError):
            IsolationForest(max_samples=1)
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.8)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            IsolationForest().fit(np.zeros(10))
        with pytest.raises(ValueError):
            IsolationForest().fit(np.zeros((1, 3)))

    def test_handles_constant_features(self):
        rng = np.random.default_rng(4)
        data = np.hstack([rng.normal(size=(200, 1)), np.ones((200, 1))])
        forest = IsolationForest(n_estimators=10, rng=rng).fit(data)
        assert np.isfinite(forest.score_samples(data)).all()
