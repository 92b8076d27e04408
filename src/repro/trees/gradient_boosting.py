"""Gradient Boosted Regression Forest (GBRF).

The paper's GBRF baseline follows Huang et al. (2021) with the modifications
stated in Section 3.3: 30 decision trees and no dimensionality-reduction step.
Anomalies are detected from the residual between the ensemble's forecast and
the observed value, exactly like the AR-LSTM baseline.

For a squared-error objective, gradient boosting reduces to iteratively
fitting regression trees to the current residuals and adding the shrunken
predictions to the running estimate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .decision_tree import NODE_KEYS, DecisionTreeRegressor
from .nodes import as_rows, concatenate, load_nodes, row_blocks, traverse

__all__ = ["GradientBoostingRegressor", "MultiOutputGradientBoosting"]


def _boosted_sum(nodes: Dict[str, np.ndarray], rows: np.ndarray,
                 initial: np.ndarray, learning_rate: float) -> np.ndarray:
    """(n_rows, n_outputs): ``initial`` plus each output's shrunken leaf values.

    ``nodes`` holds the outputs' trees output-major, equally many each.  One
    traversal covers every (tree, row) pair; the sum loops over trees in
    tree order, vectorised over (rows, outputs), so the bits match adding
    one tree's prediction at a time.
    """
    roots = nodes["tree_offsets"][:-1]
    blocks = []
    for block in row_blocks(rows.shape[0], roots.shape[0]):
        leaf, _ = traverse(nodes, roots, rows[block])
        values = nodes["value"][leaf].reshape(initial.shape[0], -1, leaf.shape[1])
        output = np.repeat(initial[None, :], leaf.shape[1], axis=0)
        for stage in range(values.shape[1]):
            output = output + learning_rate * values[:, stage].T
        blocks.append(output)
    return np.concatenate(blocks)


class GradientBoostingRegressor:
    """Single-output gradient boosting with regression-tree base learners."""

    def __init__(self, n_estimators: int = 30, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 1,
                 subsample: float = 1.0, max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self._rng = rng if rng is not None else np.random.default_rng()
        self.nodes_: Optional[Dict[str, np.ndarray]] = None
        self.n_features_: Optional[int] = None
        self.initial_prediction_: float = 0.0
        self.train_scores_: List[float] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostingRegressor":
        """Fit the boosted ensemble with the MSE criterion."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same number of samples")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        tables = []
        self.train_scores_ = []
        self.initial_prediction_ = float(targets.mean())
        current = np.full_like(targets, self.initial_prediction_)
        n_samples = features.shape[0]

        for _ in range(self.n_estimators):
            residuals = targets - current
            if self.subsample < 1.0:
                size = max(1, int(round(self.subsample * n_samples)))
                indices = self._rng.choice(n_samples, size=size, replace=False)
            else:
                indices = slice(None)
            tree = DecisionTreeRegressor(max_depth=self.max_depth, rng=self._rng,
                                         min_samples_leaf=self.min_samples_leaf,
                                         max_features=self.max_features)
            tree.fit(features[indices], residuals[indices])
            update = tree.predict(features)
            current = current + self.learning_rate * update
            tables.append(tree.nodes_)
            self.train_scores_.append(float(np.mean((targets - current) ** 2)))
        self.n_features_ = features.shape[1]
        self.nodes_ = concatenate(tables, NODE_KEYS)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets by summing the shrunken tree outputs."""
        if self.nodes_ is None:
            raise RuntimeError("predict() called before fit()")
        return _boosted_sum(self.nodes_, as_rows(features, self.n_features_),
                            np.asarray([self.initial_prediction_]), self.learning_rate).ravel()

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The concatenated node table (tree-local children) and offset prediction."""
        if self.nodes_ is None:
            raise RuntimeError("to_arrays() called before fit()")
        arrays = {key: array.copy() for key, array in self.nodes_.items()}
        arrays["initial_prediction"] = np.asarray([self.initial_prediction_])
        arrays["train_scores"] = np.asarray(self.train_scores_, dtype=np.float64)
        return arrays

    def load_arrays(self, arrays: Dict[str, np.ndarray], n_features: int) -> \
            "GradientBoostingRegressor":
        """Restore fitted state in place; ``ValueError`` on a malformed node table."""
        self.nodes_ = load_nodes(arrays, NODE_KEYS, n_features)
        self.n_features_ = int(n_features)
        self.initial_prediction_ = float(np.asarray(arrays["initial_prediction"])[0])
        self.train_scores_ = [float(v) for v in np.asarray(arrays["train_scores"])]
        return self


class MultiOutputGradientBoosting:
    """One boosted ensemble per output channel.

    The robot stream has many channels; the GBRF detector forecasts each
    channel from the flattened context window, so this wrapper trains an
    independent :class:`GradientBoostingRegressor` per output dimension.
    Prediction runs one traversal over the trees of every output.
    """

    def __init__(self, n_outputs: int, n_estimators: int = 30, learning_rate: float = 0.1,
                 max_depth: int = 3, subsample: float = 1.0,
                 max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_outputs < 1:
            raise ValueError("n_outputs must be at least 1")
        self.n_outputs = n_outputs
        self._rng = rng if rng is not None else np.random.default_rng()
        self.models_: List[GradientBoostingRegressor] = [
            GradientBoostingRegressor(n_estimators=n_estimators, learning_rate=learning_rate,
                                      max_depth=max_depth, subsample=subsample,
                                      max_features=max_features, rng=self._rng)
            for _ in range(n_outputs)
        ]
        self._nodes: Optional[Dict[str, np.ndarray]] = None
        self._initial = np.zeros(n_outputs)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MultiOutputGradientBoosting":
        """Fit every per-channel ensemble; ``targets`` is (n_samples, n_outputs)."""
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets.reshape(-1, 1)
        if targets.shape[1] != self.n_outputs:
            raise ValueError(f"expected {self.n_outputs} output columns, got {targets.shape[1]}")
        for output_index, model in enumerate(self.models_):
            model.fit(features, targets[:, output_index])
        self._stack()
        return self

    def _stack(self) -> None:
        """Concatenate every output's trees, output-major, into one node table."""
        if len({model.nodes_["tree_offsets"].shape[0] for model in self.models_}) != 1:
            raise ValueError("every output must hold the same number of trees")
        self._nodes = concatenate([model.nodes_ for model in self.models_], NODE_KEYS)
        self._initial = np.asarray([model.initial_prediction_ for model in self.models_])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict all output channels; returns (n_samples, n_outputs)."""
        if self._nodes is None:
            raise RuntimeError("predict() called before fit()")
        first = self.models_[0]
        rows = as_rows(features, first.n_features_)
        return _boosted_sum(self._nodes, rows, self._initial, first.learning_rate)

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten every per-channel ensemble, namespaced ``outNN.<key>``."""
        stacked: Dict[str, np.ndarray] = {}
        for output_index, model in enumerate(self.models_):
            for key, value in model.to_arrays().items():
                stacked[f"out{output_index}.{key}"] = value
        return stacked

    def load_arrays(self, arrays: Dict[str, np.ndarray], n_features: int) -> \
            "MultiOutputGradientBoosting":
        """Restore every per-channel ensemble in place."""
        for output_index, model in enumerate(self.models_):
            prefix = f"out{output_index}."
            model_arrays = {key[len(prefix):]: value for key, value in arrays.items()
                            if key.startswith(prefix)}
            if not model_arrays:
                raise KeyError(f"missing arrays for output channel {output_index}")
            model.load_arrays(model_arrays, n_features)
        self._stack()
        return self
