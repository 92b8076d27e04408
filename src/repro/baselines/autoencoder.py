"""Convolutional auto-encoder (AE) baseline.

The paper's reconstruction-based baseline is a convolutional auto-encoder
built from six ResNet blocks; the anomaly score is the euclidean norm of the
difference between the reconstructed and the observed values (Section 3.3).
The encoder halves the time dimension with strided residual blocks and the
decoder mirrors it with transposed convolutions; the score of a sample is
the reconstruction error at the final (most recent) time step of its window,
which keeps the score causally aligned with the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .. import nn
from ..core.detector import AnomalyDetector, InferenceCost
from ..data.windowing import WindowDataset

__all__ = ["AutoencoderConfig", "AutoencoderDetector"]


@dataclass(frozen=True)
class AutoencoderConfig:
    """Architecture and training hyper-parameters of the AE baseline."""

    n_channels: int
    window: int = 32
    base_feature_maps: int = 16
    n_blocks: int = 6
    latent_feature_maps: int = 32
    learning_rate: float = 1e-3
    epochs: int = 3
    batch_size: int = 32
    max_train_windows: int = 600
    gradient_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.n_blocks < 2 or self.n_blocks % 2 != 0:
            raise ValueError("n_blocks must be an even number >= 2")
        downsampling = 2 ** (self.n_blocks // 2)
        if self.window < downsampling or self.window % downsampling != 0:
            raise ValueError(
                f"window must be a multiple of {downsampling} so the decoder can "
                "mirror the encoder exactly"
            )

    @classmethod
    def paper(cls, n_channels: int = 86) -> "AutoencoderConfig":
        """Full-scale configuration: 6 ResNet blocks, lr 1e-5, window 512."""
        return cls(n_channels=n_channels, window=512, base_feature_maps=64,
                   latent_feature_maps=128, learning_rate=1e-5, epochs=50,
                   max_train_windows=1_000_000)


class _ConvAutoencoder(nn.Module):
    """Symmetric residual encoder / transposed-convolution decoder."""

    def __init__(self, config: AutoencoderConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        half_blocks = config.n_blocks // 2
        feature_maps = config.base_feature_maps

        encoder_layers: List[nn.Module] = []
        in_channels = config.n_channels
        for block in range(half_blocks):
            out_channels = config.latent_feature_maps if block == half_blocks - 1 else feature_maps
            encoder_layers.append(
                nn.ResidualBlock1d(in_channels, out_channels, kernel_size=3, stride=2, rng=rng)
            )
            in_channels = out_channels
        self.encoder = nn.Sequential(*encoder_layers)

        decoder_layers: List[nn.Module] = []
        for block in range(half_blocks):
            last = block == half_blocks - 1
            out_channels = config.n_channels if last else feature_maps
            decoder_layers.append(nn.ConvTranspose1d(in_channels, out_channels,
                                                     kernel_size=4, stride=2, padding=1, rng=rng))
            if not last:
                decoder_layers.append(nn.ReLU())
            in_channels = out_channels
        self.decoder = nn.Sequential(*decoder_layers)

    def forward(self, windows: nn.Tensor) -> nn.Tensor:
        """Reconstruct a (batch, channels, window) input."""
        latent = self.encoder(windows)
        return self.decoder(latent)


class AutoencoderDetector(AnomalyDetector):
    """Reconstruction-based detector scored by the reconstruction error."""

    name = "AE"
    scores_current_sample = True

    def __init__(self, config: AutoencoderConfig) -> None:
        super().__init__(window=config.window)
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.network = _ConvAutoencoder(config, rng=self._rng)

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "AutoencoderDetector":
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
            for contexts, _ in dataset.batches(self.config.batch_size, shuffle=True,
                                               rng=self._rng):
                inputs = nn.Tensor(np.transpose(contexts, (0, 2, 1)))
                reconstruction = self.network(inputs)
                loss = nn.mse_loss(reconstruction, inputs.detach())
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
    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruct a batch of (window, channels) contexts."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None, ...]
        with nn.no_grad():
            inputs = nn.Tensor(np.transpose(windows, (0, 2, 1)))
            outputs = self.network(inputs)
        return np.transpose(outputs.numpy(), (0, 2, 1))

    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized reconstruction-error scoring for a batch of windows."""
        self._check_fitted()
        windows, _ = self._validate_batch(windows, targets)
        reconstruction = self.reconstruct(windows)
        errors = reconstruction[:, -1, :] - windows[:, -1, :]
        return np.linalg.norm(errors, axis=1)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        profile = nn.profile_model(self.network.encoder,
                                   (self.config.n_channels, self.config.window))
        latent_length = self.config.window // (2 ** (self.config.n_blocks // 2))
        decoder_profile = nn.profile_model(self.network.decoder,
                                           (self.config.latent_feature_maps, latent_length))
        # Residual blocks issue many small kernels (convolutions, shortcut
        # projections, element-wise adds, activations) over full-length
        # activations, which is what makes the AE the slowest neural model on
        # the boards despite a FLOP count comparable to VARADE's.
        launches = 20.0 * self.config.n_blocks
        return InferenceCost(
            flops=float(profile.total_flops + decoder_profile.total_flops),
            parameter_bytes=float(self.network.num_parameters() * 4),
            activation_bytes=float(profile.total_activation_bytes
                                   + decoder_profile.total_activation_bytes),
            gpu_fraction=0.9,
            parallel_efficiency=0.7,
            n_kernel_launches=launches,
        )
