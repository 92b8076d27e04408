"""Tests for gradient boosting (single and multi-output)."""

import numpy as np
import pytest

from repro.trees import GradientBoostingRegressor, MultiOutputGradientBoosting


class TestGradientBoostingRegressor:
    def test_fits_nonlinear_function_better_than_mean(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(400, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2
        model = GradientBoostingRegressor(n_estimators=30, learning_rate=0.2, max_depth=3,
                                          rng=rng)
        model.fit(x, y)
        mse = np.mean((model.predict(x) - y) ** 2)
        assert mse < 0.2 * np.var(y)

    def test_training_error_decreases_with_stages(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 3))
        y = x[:, 0] - 2 * x[:, 1]
        model = GradientBoostingRegressor(n_estimators=20, learning_rate=0.3, rng=rng)
        model.fit(x, y)
        scores = model.train_scores_
        assert scores[-1] < scores[0]
        assert len(scores) == 20

    def test_subsample_runs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        y = x[:, 0]
        model = GradientBoostingRegressor(n_estimators=5, subsample=0.5, rng=rng).fit(x, y)
        assert model.predict(x).shape == (200,)

    def test_initial_prediction_is_target_mean(self):
        x = np.zeros((10, 1))
        y = np.arange(10.0)
        model = GradientBoostingRegressor(n_estimators=1).fit(x, y)
        assert model.initial_prediction_ == pytest.approx(4.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_raises(self):
        model = GradientBoostingRegressor(n_estimators=2).fit(np.zeros((10, 3)), np.arange(10.0))
        with pytest.raises(ValueError, match="expected 3 features"):
            model.predict(np.zeros((1, 5)))
        multi = MultiOutputGradientBoosting(n_outputs=2, n_estimators=2)
        multi.fit(np.zeros((10, 3)), np.zeros((10, 2)))
        with pytest.raises(ValueError, match="expected 3 features"):
            multi.predict(np.zeros((1, 2)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((10, 2)), np.zeros(5))


class TestMultiOutputGradientBoosting:
    def test_predicts_every_output(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        y = np.stack([x[:, 0], -x[:, 1], x[:, 2] * 2], axis=1)
        model = MultiOutputGradientBoosting(n_outputs=3, n_estimators=15, learning_rate=0.3,
                                            rng=rng)
        model.fit(x, y)
        predictions = model.predict(x)
        assert predictions.shape == (200, 3)
        assert np.mean((predictions - y) ** 2) < 0.3 * np.var(y)

    def test_single_output_column_vector(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        y = x[:, 0]
        model = MultiOutputGradientBoosting(n_outputs=1, n_estimators=5, rng=rng)
        model.fit(x, y)  # 1-D target accepted
        assert model.predict(x).shape == (100, 1)

    def test_wrong_output_count_raises(self):
        model = MultiOutputGradientBoosting(n_outputs=2, n_estimators=2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 2)), np.zeros((10, 3)))

    def test_invalid_output_count(self):
        with pytest.raises(ValueError):
            MultiOutputGradientBoosting(n_outputs=0)
