"""CART regression trees.

This is the base learner for the Gradient Boosted Regression Forest (GBRF)
baseline.  Splits minimise the mean-squared-error criterion via recursive
binary splitting, as specified in the paper's implementation details
(Section 3.4), using an efficient sorted-prefix-sum split search.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .nodes import as_rows, node_table, traverse

__all__ = ["DecisionTreeRegressor"]

NODE_KEYS = ("feature", "threshold", "value", "left", "right")
_ROOT = np.zeros(1, dtype=np.int64)


class DecisionTreeRegressor:
    """A regression tree grown with the MSE criterion.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_leaf``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        If given, the number of features examined (without replacement) at
        every split -- used by the boosted forest for decorrelation.
    """

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng if rng is not None else np.random.default_rng()
        self.nodes_: Optional[Dict[str, np.ndarray]] = None
        self.n_features_: Optional[int] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``features`` (n_samples, n_features) and ``targets``."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array (n_samples, n_features)")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same number of samples")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self.n_features_ = features.shape[1]
        nodes: List[list] = []
        self._grow(features, targets, 0, nodes)
        self.nodes_ = node_table(nodes, NODE_KEYS)
        return self

    def _grow(self, features: np.ndarray, targets: np.ndarray, depth: int,
              nodes: List[list]) -> int:
        """Append the subtree for these samples to ``nodes`` in preorder; return its root."""
        index = len(nodes)
        node = [-1, 0.0, float(targets.mean()), -1, -1]
        nodes.append(node)
        n_samples = targets.shape[0]
        if (self.max_depth is not None and depth >= self.max_depth) \
                or n_samples < self.min_samples_split \
                or np.allclose(targets, targets[0]):
            return index

        feature, threshold = self._best_split(features, targets)
        if feature < 0:
            return index

        mask = features[:, feature] <= threshold
        node[0], node[1] = feature, threshold
        node[3] = self._grow(features[mask], targets[mask], depth + 1, nodes)
        node[4] = self._grow(features[~mask], targets[~mask], depth + 1, nodes)
        return index

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(self, features: np.ndarray, targets: np.ndarray) -> tuple[int, float]:
        """Return the (feature, threshold) minimising weighted child MSE.

        Uses prefix sums over the sorted targets so each feature is scanned in
        O(n log n).  Returns ``(-1, 0.0)`` when no valid split exists.
        """
        n_samples = targets.shape[0]
        best_feature = -1
        best_threshold = 0.0
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        best_score = total_sq - total_sum ** 2 / n_samples  # parent SSE

        min_leaf = self.min_samples_leaf
        for feature in self._candidate_features(features.shape[1]):
            order = np.argsort(features[:, feature], kind="stable")
            sorted_values = features[order, feature]
            sorted_targets = targets[order]
            prefix_sum = np.cumsum(sorted_targets)
            prefix_sq = np.cumsum(sorted_targets ** 2)

            # Candidate split after position i (1-based count of left samples).
            left_counts = np.arange(1, n_samples)
            valid = (left_counts >= min_leaf) & (n_samples - left_counts >= min_leaf)
            # A split between equal feature values is not realisable.
            distinct = sorted_values[:-1] < sorted_values[1:]
            valid &= distinct
            if not valid.any():
                continue

            left_sum = prefix_sum[:-1]
            left_sq = prefix_sq[:-1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            right_counts = n_samples - left_counts
            sse = (left_sq - left_sum ** 2 / left_counts) \
                + (right_sq - right_sum ** 2 / right_counts)
            sse = np.where(valid, sse, np.inf)
            best_index = int(np.argmin(sse))
            if sse[best_index] < best_score - 1e-12:
                best_score = float(sse[best_index])
                best_feature = int(feature)
                best_threshold = float(
                    0.5 * (sorted_values[best_index] + sorted_values[best_index + 1])
                )
        return best_feature, best_threshold

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n_samples, n_features)."""
        if self.nodes_ is None:
            raise RuntimeError("predict() called before fit()")
        leaf, _ = traverse(self.nodes_, _ROOT, as_rows(features, self.n_features_))
        return self.nodes_["value"][leaf[0]]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The fitted tree's preorder node table; ``value`` is each node's mean target."""
        if self.nodes_ is None:
            raise RuntimeError("to_arrays() called before fit()")
        return {key: array.copy() for key, array in self.nodes_.items()}
