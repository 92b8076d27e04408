"""Isolation Forest baseline detector.

Paper configuration (Section 3.3): an ensemble of 100 isolation trees with a
contamination value of 0.1, scored by the average path length needed to
isolate a point (Liu et al., 2012).  Like kNN, the detector works on
individual samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.detector import AnomalyDetector, InferenceCost
from ..trees.isolation_forest import IsolationForest

__all__ = ["IsolationForestConfig", "IsolationForestDetector"]


@dataclass(frozen=True)
class IsolationForestConfig:
    """Hyper-parameters of the Isolation Forest baseline."""

    n_channels: int
    n_estimators: int = 100
    max_samples: int = 256
    contamination: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")

    @classmethod
    def paper(cls, n_channels: int = 86) -> "IsolationForestConfig":
        """Paper configuration: 100 trees, contamination 0.1."""
        return cls(n_channels=n_channels, n_estimators=100, contamination=0.1)


class IsolationForestDetector(AnomalyDetector):
    """Outlier detector scored by isolation path length."""

    name = "Isolation Forest"

    def __init__(self, config: IsolationForestConfig) -> None:
        super().__init__(window=1)
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.forest = IsolationForest(
            n_estimators=config.n_estimators,
            max_samples=config.max_samples,
            contamination=config.contamination,
            rng=self._rng,
        )

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "IsolationForestDetector":
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2 or train_data.shape[1] != self.config.n_channels:
            raise ValueError(f"expected training data of shape (T, {self.config.n_channels})")
        start = time.perf_counter()
        self.forest.fit(train_data)
        self.history.wall_time_s = time.perf_counter() - start
        self._mark_fitted()
        return self

    # -- scoring -------------------------------------------------------- #
    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized path-length scoring: one forest pass for all rows."""
        self._check_fitted()
        _, targets = self._validate_batch(windows, targets)
        return self.forest.score_samples(targets)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        """One comparison per level of each of the (sequentially traversed) trees."""
        expected_depth = np.ceil(np.log2(max(self.config.max_samples, 2)))
        node_visits = self.config.n_estimators * expected_depth
        nodes_per_tree = 2 * self.config.max_samples
        parameter_bytes = self.config.n_estimators * nodes_per_tree * 24
        return InferenceCost(
            flops=float(2.0 * node_visits),
            parameter_bytes=float(parameter_bytes),
            activation_bytes=float(self.config.n_estimators * 8),
            gpu_fraction=0.0,
            parallel_efficiency=0.2,
            per_call_overhead_s=6.0e-3,
            n_kernel_launches=1.5 * self.config.n_estimators,
        )
