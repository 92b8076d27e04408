"""k-Nearest-Neighbour (kNN) baseline detector.

The paper scores each data point by the *maximum* distance to its k = 5
nearest neighbours in the normal training data, the configuration reported
as the best nearest-neighbour variant by Goldstein & Uchida (2016).  The
detector operates on individual samples (window = 1), so the anomaly score
of a sample is available as soon as the sample arrives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..core.detector import AnomalyDetector, InferenceCost
from ..neighbors.knn import KNNAnomalyScorer

__all__ = ["KNNConfig", "KNNDetector"]


@dataclass(frozen=True)
class KNNConfig:
    """Hyper-parameters of the kNN baseline."""

    n_channels: int
    n_neighbors: int = 5
    aggregation: Literal["max", "mean"] = "max"
    max_reference_points: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if self.max_reference_points <= self.n_neighbors:
            raise ValueError("max_reference_points must exceed n_neighbors")

    @classmethod
    def paper(cls, n_channels: int = 86) -> "KNNConfig":
        """Paper configuration: k = 5, maximum-distance aggregation.

        The reference set is the full 390-minute training recording sampled at
        200 Hz (about 4.7 million points), which is what makes the kNN scan so
        expensive on the boards.
        """
        return cls(n_channels=n_channels, n_neighbors=5, aggregation="max",
                   max_reference_points=4_680_000)


class KNNDetector(AnomalyDetector):
    """Outlier detector scored by the distance to the normal reference set."""

    name = "kNN"

    def __init__(self, config: KNNConfig) -> None:
        super().__init__(window=1)
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.scorer = KNNAnomalyScorer(
            n_neighbors=config.n_neighbors,
            aggregation=config.aggregation,
            max_reference_points=config.max_reference_points,
            rng=self._rng,
        )

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "KNNDetector":
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2 or train_data.shape[1] != self.config.n_channels:
            raise ValueError(f"expected training data of shape (T, {self.config.n_channels})")
        start = time.perf_counter()
        self.scorer.fit(train_data)
        self.history.wall_time_s = time.perf_counter() - start
        self._mark_fitted()
        return self

    # -- scoring -------------------------------------------------------- #
    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized distance scoring: one reference-set scan for all rows."""
        self._check_fitted()
        _, targets = self._validate_batch(windows, targets)
        return self.scorer.score_samples(targets)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        """A brute-force scan of the whole reference set per query."""
        n_reference = self.scorer.reference_.shape[0] if self.scorer.reference_ is not None \
            else self.config.max_reference_points
        # Difference, square, accumulate, plus the partial sort of the distances.
        flops = 5.0 * n_reference * self.config.n_channels
        parameter_bytes = n_reference * self.config.n_channels * 8
        return InferenceCost(
            flops=float(flops),
            parameter_bytes=float(parameter_bytes),
            activation_bytes=float(n_reference * 8),
            gpu_fraction=0.0,
            parallel_efficiency=0.25,
            per_call_overhead_s=2.0e-3,
            n_kernel_launches=10.0,
        )
