"""Autoregressive LSTM (AR-LSTM) baseline.

The paper's recurrent baseline stacks five LSTM layers with 256 feature maps
each, followed by two fully connected layers; the anomaly score is the
euclidean norm of the difference between the predicted and the observed next
sample (Section 3.3).  The architecture is parameterised here so the
CPU-only reproduction can run a reduced copy while the full configuration
remains expressible via :meth:`ARLSTMDetector.paper_configuration`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .. import nn
from ..core.detector import AnomalyDetector, InferenceCost
from ..data.windowing import WindowDataset

__all__ = ["ARLSTMConfig", "ARLSTMDetector"]


@dataclass(frozen=True)
class ARLSTMConfig:
    """Architecture and training hyper-parameters of the AR-LSTM baseline."""

    n_channels: int
    window: int = 32
    hidden_size: int = 32
    num_layers: int = 2
    fc_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 3
    batch_size: int = 32
    max_train_windows: int = 400
    gradient_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.hidden_size < 1 or self.fc_size < 1:
            raise ValueError("hidden_size and fc_size must be positive")
        if self.num_layers < 1:
            raise ValueError("num_layers must be at least 1")

    @classmethod
    def paper(cls, n_channels: int = 86) -> "ARLSTMConfig":
        """The configuration stated in the paper: 5 layers x 256 units, lr 1e-5."""
        return cls(n_channels=n_channels, window=512, hidden_size=256, num_layers=5,
                   fc_size=256, learning_rate=1e-5, epochs=50,
                   max_train_windows=1_000_000)


class _ARLSTMNetwork(nn.Module):
    """LSTM stack followed by two fully connected layers."""

    def __init__(self, config: ARLSTMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.lstm = nn.LSTM(config.n_channels, config.hidden_size,
                            num_layers=config.num_layers, rng=rng)
        self.fc1 = nn.Linear(config.hidden_size, config.fc_size, rng=rng)
        self.fc2 = nn.Linear(config.fc_size, config.n_channels, rng=rng)
        self.activation = nn.ReLU()

    def forward(self, windows: nn.Tensor) -> nn.Tensor:
        """Predict the next sample from a (batch, window, channels) input."""
        last_hidden = self.lstm.last_hidden(windows)
        hidden = self.activation(self.fc1(last_hidden))
        return self.fc2(hidden)


class ARLSTMDetector(AnomalyDetector):
    """Forecasting detector scored by the L2 norm of the prediction error."""

    name = "AR-LSTM"

    def __init__(self, config: ARLSTMConfig) -> None:
        super().__init__(window=config.window)
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.network = _ARLSTMNetwork(config, rng=self._rng)

    @classmethod
    def paper_configuration(cls, n_channels: int = 86) -> "ARLSTMDetector":
        """Instantiate the full-scale paper configuration (not trained)."""
        return cls(ARLSTMConfig.paper(n_channels))

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "ARLSTMDetector":
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2 or train_data.shape[1] != self.config.n_channels:
            raise ValueError(f"expected training data of shape (T, {self.config.n_channels})")
        start = time.perf_counter()
        dataset = WindowDataset.from_stream(train_data, self.config.window, horizon=1) \
            .subsample(self.config.max_train_windows, rng=self._rng)
        optimizer = nn.Adam(self.network.parameters(), lr=self.config.learning_rate)
        self.network.train()
        for _ in range(self.config.epochs):
            losses: List[float] = []
            for contexts, targets in dataset.batches(self.config.batch_size, shuffle=True,
                                                     rng=self._rng):
                prediction = self.network(nn.Tensor(contexts))
                loss = nn.mse_loss(prediction, nn.Tensor(targets))
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.network.parameters(), self.config.gradient_clip)
                optimizer.step()
                losses.append(loss.item())
            self.history.epoch_losses.append(float(np.mean(losses)))
        self.network.eval()
        self.history.wall_time_s = time.perf_counter() - start
        self._mark_fitted()
        return self

    # -- scoring -------------------------------------------------------- #
    def predict_next(self, windows: np.ndarray) -> np.ndarray:
        """Forecast the next sample for a batch of (window, channels) contexts."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None, ...]
        # BLAS dispatches 1-row matmuls (here: every LSTM/FC layer) to a
        # gemv-class kernel whose rounding differs from the >=2-row gemm
        # kernels, which are row-count invariant.  Duplicating a lone window
        # keeps sequential scoring bit-identical to batched scoring.
        padded = windows.shape[0] == 1
        if padded:
            windows = np.concatenate([windows, windows])
        with nn.no_grad():
            prediction = self.network(nn.Tensor(windows))
        result = prediction.numpy()
        return result[:1] if padded else result

    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized forecasting-error scoring: one LSTM pass for all rows."""
        self._check_fitted()
        windows, targets = self._validate_batch(windows, targets)
        predictions = self.predict_next(windows)
        return np.linalg.norm(predictions - targets, axis=1)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        profile = nn.profile_model(self.network.lstm,
                                   (self.config.window, self.config.n_channels))
        fc_flops = 2 * (self.config.hidden_size * self.config.fc_size
                        + self.config.fc_size * self.config.n_channels)
        params = self.network.num_parameters()
        # LSTMs re-read the full weight matrices at every time step, which is
        # what makes them memory-bandwidth hungry on edge GPUs.
        weight_traffic = params * 4 * self.config.window
        activation_bytes = profile.total_activation_bytes \
            + 4 * (self.config.fc_size + self.config.n_channels)
        # Recurrent steps are partially fused by the runtime but still issue a
        # long sequence of dependent kernels.
        launches = max(self.config.window / 8.0, self.config.num_layers * 4.0)
        return InferenceCost(
            flops=float(profile.total_flops + fc_flops),
            parameter_bytes=float(params * 4),
            activation_bytes=float(activation_bytes),
            gpu_fraction=0.95,
            parallel_efficiency=0.35,
            n_kernel_launches=launches,
            weight_traffic_bytes=float(weight_traffic),
        )
