"""Gradient Boosted Regression Forest (GBRF) baseline detector.

Following Huang et al. (2021) as modified by the paper (Section 3.3): a
boosted forest of 30 regression trees forecasts the next sample from the
context window, without any dimensionality-reduction step, and the anomaly
score is the euclidean norm of the forecast residual (same scoring rule as
AR-LSTM).

A full window of every channel would give the trees tens of thousands of
input features; like the reference implementation, the detector summarises
the context with a small set of recent samples per channel
(``context_samples`` evenly spaced taps, always including the most recent
one), which keeps tree construction tractable while preserving the short-term
dynamics that matter for one-step-ahead forecasting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.detector import AnomalyDetector, InferenceCost
from ..data.windowing import WindowDataset
from ..trees.gradient_boosting import MultiOutputGradientBoosting

__all__ = ["GBRFConfig", "GBRFDetector"]


@dataclass(frozen=True)
class GBRFConfig:
    """Hyper-parameters of the GBRF baseline."""

    n_channels: int
    window: int = 32
    n_estimators: int = 30
    max_depth: int = 3
    learning_rate: float = 0.1
    context_samples: int = 4
    max_train_windows: int = 400
    max_output_channels: Optional[int] = None
    max_split_features: Optional[int] = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 1 <= self.context_samples <= self.window:
            raise ValueError("context_samples must be in [1, window]")

    @classmethod
    def paper(cls, n_channels: int = 86) -> "GBRFConfig":
        """Paper configuration: 30 trees, no dimensionality reduction."""
        return cls(n_channels=n_channels, window=512, n_estimators=30,
                   context_samples=8, max_train_windows=1_000_000,
                   max_split_features=None)


class GBRFDetector(AnomalyDetector):
    """Forecasting detector built on boosted regression trees."""

    name = "GBRF"

    def __init__(self, config: GBRFConfig) -> None:
        super().__init__(window=config.window)
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        n_outputs = config.n_channels if config.max_output_channels is None \
            else min(config.n_channels, config.max_output_channels)
        self._n_outputs = n_outputs
        self.model = MultiOutputGradientBoosting(
            n_outputs=n_outputs,
            n_estimators=config.n_estimators,
            learning_rate=config.learning_rate,
            max_depth=config.max_depth,
            max_features=config.max_split_features,
            rng=self._rng,
        )
        self._tap_indices = self._compute_taps(config.window, config.context_samples)

    @staticmethod
    def _compute_taps(window: int, context_samples: int) -> np.ndarray:
        """Indices of the window samples used as tree features (most recent last)."""
        if context_samples == 1:
            return np.array([window - 1])
        taps = np.linspace(0, window - 1, context_samples)
        return np.unique(np.round(taps).astype(int))

    def _features(self, contexts: np.ndarray) -> np.ndarray:
        """Flatten the tapped context samples into tree features."""
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim == 2:
            contexts = contexts[None, ...]
        tapped = contexts[:, self._tap_indices, :]
        return tapped.reshape(contexts.shape[0], -1)

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "GBRFDetector":
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2 or train_data.shape[1] != self.config.n_channels:
            raise ValueError(f"expected training data of shape (T, {self.config.n_channels})")
        start = time.perf_counter()
        dataset = WindowDataset.from_stream(train_data, self.config.window, horizon=1) \
            .subsample(self.config.max_train_windows, rng=self._rng)
        features = self._features(dataset.contexts)
        targets = dataset.targets[:, :self._n_outputs]
        self.model.fit(features, targets)
        train_residuals = self.model.predict(features) - targets
        self.history.epoch_losses.append(float(np.mean(train_residuals ** 2)))
        self.history.wall_time_s = time.perf_counter() - start
        self._mark_fitted()
        return self

    # -- scoring -------------------------------------------------------- #
    def predict_next(self, windows: np.ndarray) -> np.ndarray:
        """Forecast the (possibly truncated) next sample for a batch of contexts."""
        return self.model.predict(self._features(windows))

    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized forecast-residual scoring for a batch of windows."""
        self._check_fitted()
        windows, targets = self._validate_batch(windows, targets)
        predictions = self.predict_next(windows)
        return np.linalg.norm(predictions - targets[:, :self._n_outputs], axis=1)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        """Tree traversal is a handful of comparisons per tree per channel."""
        node_visits = self._n_outputs * self.config.n_estimators * self.config.max_depth
        flops = 2.0 * node_visits
        # Each node stores feature index, threshold, value: ~3 values of 8 bytes.
        nodes_per_tree = 2 ** (self.config.max_depth + 1)
        parameter_bytes = self._n_outputs * self.config.n_estimators * nodes_per_tree * 24
        return InferenceCost(
            flops=flops,
            parameter_bytes=float(parameter_bytes),
            activation_bytes=float(self._n_outputs * 8),
            gpu_fraction=0.1,
            parallel_efficiency=0.3,
            per_call_overhead_s=1.5e-3,
            n_kernel_launches=float(self.config.n_estimators),
        )
