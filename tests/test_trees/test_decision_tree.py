"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.trees import DecisionTreeRegressor, traverse

ROOT = np.zeros(1, dtype=np.int64)


def leaves_and_depths(tree, x):
    """Each training row's leaf index and depth, from the fitted node arrays."""
    leaf, depth = traverse(tree.to_arrays(), ROOT, np.ascontiguousarray(x, dtype=np.float64))
    return leaf[0], depth[0]


class TestFitting:
    def test_fits_piecewise_constant_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.where(x[:, 0] > 0.5, 2.0, -1.0)
        tree = DecisionTreeRegressor(max_depth=2)
        tree.fit(x, y)
        predictions = tree.predict(np.array([[0.2], [0.8]]))
        np.testing.assert_allclose(predictions, [-1.0, 2.0], atol=1e-6)

    def test_deeper_tree_fits_better(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, size=(400, 1))
        y = np.sin(x[:, 0])
        shallow = DecisionTreeRegressor(max_depth=1).fit(x, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(x, y)
        mse_shallow = np.mean((shallow.predict(x) - y) ** 2)
        mse_deep = np.mean((deep.predict(x) - y) ** 2)
        assert mse_deep < mse_shallow * 0.5

    def test_depth_zero_predicts_mean(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        tree = DecisionTreeRegressor(max_depth=0).fit(x, y)
        np.testing.assert_allclose(tree.predict(x), y.mean())

    def test_respects_max_depth(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        # Every leaf holds a training row, so the deepest row is the tree's depth.
        _, depth = leaves_and_depths(tree, x)
        assert depth.max() == 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(x, y)
        leaf, _ = leaves_and_depths(tree, x)
        is_leaf = tree.to_arrays()["feature"] < 0
        rows_per_leaf = np.bincount(leaf, minlength=is_leaf.size)[is_leaf]
        assert is_leaf.sum() > 1
        assert rows_per_leaf.min() >= 10

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        y = np.full(30, 3.3)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.to_arrays()["feature"].tolist() == [-1]
        np.testing.assert_allclose(tree.predict(x), 3.3)

    def test_max_features_subsampling_still_fits(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 6))
        y = x[:, 0] * 2.0
        tree = DecisionTreeRegressor(max_depth=4, max_features=3, rng=rng).fit(x, y)
        assert np.mean((tree.predict(x) - y) ** 2) < np.var(y)


class TestValidationAndIntrospection:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_raises(self):
        tree = DecisionTreeRegressor().fit(np.zeros((10, 3)), np.zeros(10))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 5)))

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_rejects_bad_shapes(self):
        tree = DecisionTreeRegressor()
        with pytest.raises(ValueError):
            tree.fit(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((10, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.zeros(0))

    def test_node_count_consistent_with_leaves(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        feature = tree.to_arrays()["feature"]
        assert (feature >= 0).sum() == (feature < 0).sum() - 1

    def test_single_row_prediction(self):
        tree = DecisionTreeRegressor(max_depth=2).fit(np.arange(20.0).reshape(-1, 1),
                                                      np.arange(20.0))
        assert tree.predict(np.array([5.0])).shape == (1,)
