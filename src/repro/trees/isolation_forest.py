"""Isolation Forest (Liu, Ting & Zhou, 2012).

The paper uses an ensemble of 100 isolation trees and a contamination value
of 0.1 (the recommended default) to turn anomaly scores into a decision
threshold.  Scores follow the reference formulation: the average path length
needed to isolate a point, normalised by the expected path length of an
unsuccessful binary-search-tree lookup, mapped through ``2^(-E[h]/c(n))`` so
larger values mean "more anomalous".
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .nodes import as_rows, concatenate, load_nodes, node_table, row_blocks, traverse

__all__ = ["IsolationForest", "average_path_length"]

_NODE_KEYS = ("feature", "threshold", "size", "left", "right")


def average_path_length(n_samples: int | np.ndarray) -> np.ndarray:
    """Expected path length c(n) of an unsuccessful BST search over n points."""
    n = np.asarray(n_samples, dtype=np.float64)
    result = np.zeros_like(n)
    mask_two = n == 2
    mask_many = n > 2
    euler_mascheroni = 0.5772156649
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = np.log(n - 1) + euler_mascheroni
        result = np.where(mask_many, 2.0 * harmonic - 2.0 * (n - 1) / n, result)
    result = np.where(mask_two, 1.0, result)
    return result


class IsolationForest:
    """Ensemble of isolation trees with the standard anomaly score.

    A row goes left when ``row[feature] < threshold``.
    """

    def __init__(self, n_estimators: int = 100, max_samples: int = 256,
                 contamination: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self._rng = rng if rng is not None else np.random.default_rng()
        self.nodes_: Optional[Dict[str, np.ndarray]] = None
        self.n_features_: Optional[int] = None
        self.threshold_: Optional[float] = None
        self._sample_size: int = max_samples
        self._correction = np.zeros(0)

    def fit(self, data: np.ndarray) -> "IsolationForest":
        """Fit the forest on (assumed mostly normal) data."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array (n_samples, n_features)")
        if data.shape[0] < 2:
            raise ValueError("need at least two samples to fit an isolation forest")
        n_samples = data.shape[0]
        self._sample_size = min(self.max_samples, n_samples)
        height_limit = int(np.ceil(np.log2(max(self._sample_size, 2))))

        trees = []
        for _ in range(self.n_estimators):
            indices = self._rng.choice(n_samples, size=self._sample_size, replace=False)
            nodes: List[list] = []
            self._grow(data[indices], 0, height_limit, nodes)
            trees.append(node_table(nodes, _NODE_KEYS))
        self._adopt(concatenate(trees, _NODE_KEYS), data.shape[1])

        # Contamination defines the score threshold used by predict().
        train_scores = self.score_samples(data)
        self.threshold_ = float(np.quantile(train_scores, 1.0 - self.contamination))
        return self

    def _grow(self, data: np.ndarray, depth: int, height_limit: int, nodes: List[list]) -> int:
        """Append an isolation subtree to ``nodes`` in preorder; return its root."""
        index = len(nodes)
        n_samples = data.shape[0]
        node = [-1, 0.0, n_samples, -1, -1]
        nodes.append(node)
        if depth >= height_limit or n_samples <= 1:
            return index
        # Choose a feature with non-zero spread; give up after a few attempts
        # (the subsample may be constant in every dimension).
        for _ in range(data.shape[1]):
            feature = int(self._rng.integers(0, data.shape[1]))
            low, high = data[:, feature].min(), data[:, feature].max()
            if high > low:
                break
        else:
            return index
        threshold = float(self._rng.uniform(low, high))
        mask = data[:, feature] < threshold
        if not mask.any() or mask.all():
            return index
        node[0], node[1] = feature, threshold
        node[3] = self._grow(data[mask], depth + 1, height_limit, nodes)
        node[4] = self._grow(data[~mask], depth + 1, height_limit, nodes)
        return index

    def _adopt(self, nodes: Dict[str, np.ndarray], n_features: int) -> None:
        """Hold ``nodes`` and each node's c(size) leaf correction."""
        self.nodes_ = nodes
        self.n_features_ = int(n_features)
        sizes, inverse = np.unique(nodes["size"], return_inverse=True)
        # One scalar c(size) call per distinct size: a SIMD array log may round differently.
        corrections = [float(average_path_length(int(size))) if size > 1 else 0.0
                       for size in sizes]
        self._correction = np.asarray(corrections, dtype=np.float64)[inverse]

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        """Anomaly score in (0, 1); larger means more anomalous."""
        if self.nodes_ is None:
            raise RuntimeError("score_samples() called before fit()")
        rows = as_rows(data, self.n_features_)
        roots = self.nodes_["tree_offsets"][:-1]
        totals = []
        for block in row_blocks(rows.shape[0], roots.shape[0]):
            leaf, depth = traverse(self.nodes_, roots, rows[block], strict=True)
            # Path length h(x) per (tree, row), summed over trees in tree order.
            path_lengths = np.zeros(leaf.shape[1])
            for tree_lengths in depth + self._correction[leaf]:
                path_lengths += tree_lengths
            totals.append(path_lengths)
        mean_path = np.concatenate(totals) / roots.shape[0]
        normaliser = float(average_path_length(self._sample_size))
        return np.power(2.0, -mean_path / max(normaliser, 1e-12))

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Return +1 for normal points and -1 for anomalies (contamination threshold)."""
        if self.threshold_ is None:
            raise RuntimeError("predict() called before fit()")
        scores = self.score_samples(data)
        return np.where(scores > self.threshold_, -1, 1)

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The concatenated node table (tree-local children), sample size and threshold."""
        if self.nodes_ is None:
            raise RuntimeError("to_arrays() called before fit()")
        arrays = {key: array.copy() for key, array in self.nodes_.items()}
        arrays["sample_size"] = np.asarray([self._sample_size], dtype=np.int64)
        arrays["score_threshold"] = np.asarray(
            [np.nan if self.threshold_ is None else self.threshold_]
        )
        return arrays

    def load_arrays(self, arrays: Dict[str, np.ndarray], n_features: int) -> "IsolationForest":
        """Restore a fitted forest in place; ``ValueError`` on a malformed node table."""
        self._adopt(load_nodes(arrays, _NODE_KEYS, n_features), n_features)
        self._sample_size = int(np.asarray(arrays["sample_size"])[0])
        stored_threshold = float(np.asarray(arrays["score_threshold"])[0])
        self.threshold_ = None if np.isnan(stored_threshold) else stored_threshold
        return self
