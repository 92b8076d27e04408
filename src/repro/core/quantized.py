"""Int8 drop-in VARADE detector built by post-training quantization.

:meth:`repro.core.detector.VaradeDetector.quantize` converts a fitted float
detector into a :class:`QuantizedVaradeDetector`: the Conv1d/Linear weights
are quantized to symmetric per-output-channel int8, activation ranges are
calibrated on representative normal windows, and inference runs through the
:class:`repro.nn.quant.QuantizedForwardPlan` int8 mirror of the float fast
path.  The result serves the exact :class:`~repro.core.detector.AnomalyDetector`
scoring contract (``score_window`` / ``score_windows_batch`` /
``score_stream``), so it drops into the streaming runtimes, the multi-stream
fleet and the serialization layer unchanged -- only ``fit`` is refused, since
the trainable graph has been discarded.

``benchmarks/bench_quantized_inference.py`` measures the float-vs-int8
throughput and score drift; ``tests/test_core/test_quantized.py`` holds the
accuracy-tolerance suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.quant import QuantizedForwardPlan
from .config import VaradeConfig
from .detector import (AnomalyDetector, InferenceCost, TrainingHistory,
                       VaradeDetector, VaradeIncrementalScorer)

__all__ = ["QuantizedVaradeDetector", "coerce_calibration_windows"]

#: calibration needs representative ranges, not every window; long streams
#: are thinned to this many evenly spaced windows before the range scan.
_MAX_CALIBRATION_WINDOWS = 1024


def coerce_calibration_windows(data: np.ndarray, window: int,
                               n_channels: int) -> np.ndarray:
    """Normalise calibration input to a ``(n, window, channels)`` batch.

    Accepts either an explicit window batch or a raw ``(T, channels)``
    stream, which is cut into sliding windows and thinned to at most
    ``_MAX_CALIBRATION_WINDOWS`` evenly spaced examples.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        from ..data.windowing import sliding_windows

        if data.shape[0] < window:
            raise ValueError(
                f"calibration stream has {data.shape[0]} samples, "
                f"need at least one full window of {window}"
            )
        windows = sliding_windows(data, window, stride=1)
    elif data.ndim == 3:
        windows = data
    else:
        raise ValueError(
            "calibration data must be a (T, channels) stream or a "
            "(n, window, channels) window batch"
        )
    if windows.shape[1] != window or windows.shape[2] != n_channels:
        raise ValueError(
            f"calibration windows must have shape (n, {window}, {n_channels}), "
            f"got {windows.shape}"
        )
    if windows.shape[0] > _MAX_CALIBRATION_WINDOWS:
        keep = np.linspace(0, windows.shape[0] - 1, _MAX_CALIBRATION_WINDOWS)
        windows = windows[np.round(keep).astype(int)]
    return windows


class QuantizedVaradeDetector(AnomalyDetector):
    """Inference-only int8 VARADE sharing the common detector contract."""

    name = "VARADE-int8"
    scores_current_sample = True

    def __init__(self, config: VaradeConfig, plan: QuantizedForwardPlan,
                 history: Optional[TrainingHistory] = None) -> None:
        super().__init__(window=config.window)
        if plan.in_channels != config.n_channels or plan.in_length != config.window:
            raise ValueError(
                f"plan input shape ({plan.in_channels}, {plan.in_length}) does not "
                f"match config ({config.n_channels}, {config.window})"
            )
        if set(plan.heads) != {"mean", "log_var"}:
            raise ValueError("a VARADE plan needs exactly the 'mean' and 'log_var' heads")
        self.config = config
        self.plan = plan
        if history is not None:
            self.history = history
        # A quantized detector is a deployment artifact: born fitted.
        self._mark_fitted()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_detector(cls, detector: VaradeDetector, calibration_data: np.ndarray,
                      headroom: float = 2.0) -> "QuantizedVaradeDetector":
        """Quantize a fitted float VARADE against calibration windows.

        ``headroom`` widens the calibrated activation ranges (default 2x): the
        calibration data is *normal* by construction, but the detector's job
        is to score abnormal windows, whose activations overshoot the normal
        ranges -- without margin they would saturate to the int8 ceiling and
        flatten exactly the scores the AUC depends on.
        """
        config = detector.config
        windows = coerce_calibration_windows(calibration_data, config.window,
                                             config.n_channels)
        calibration = np.ascontiguousarray(np.transpose(windows, (0, 2, 1)))
        plan = QuantizedForwardPlan.from_network(
            detector.network.backbone,
            {"mean": detector.network.head_mean,
             "log_var": detector.network.head_log_var},
            in_channels=config.n_channels,
            in_length=config.window,
            calibration=calibration,
            headroom=headroom,
        )
        history = TrainingHistory(
            epoch_losses=list(detector.history.epoch_losses),
            wall_time_s=detector.history.wall_time_s,
        )
        quantized = cls(config, plan, history=history)
        quantized.threshold = detector.threshold
        quantized.scaler = detector.scaler
        return quantized

    # ------------------------------------------------------------------ #
    # Training is refused
    # ------------------------------------------------------------------ #
    def fit(self, train_data: np.ndarray) -> "QuantizedVaradeDetector":
        raise RuntimeError(
            "QuantizedVaradeDetector is inference-only: train the float "
            "VaradeDetector, then call quantize() again"
        )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def predict_distribution(self, windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Int8 counterpart of :meth:`VaradeNetwork.predict_distribution`.

        ``windows`` is ``(batch, window, channels)`` (stream layout); returns
        float64 ``(mean, log_var)`` pairs with the same ``predict_delta`` and
        log-variance clipping semantics as the float network.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None, ...]
        if windows.ndim != 3 or windows.shape[1] != self.config.window \
                or windows.shape[2] != self.config.n_channels:
            raise ValueError(
                f"expected windows of shape (batch, {self.config.window}, "
                f"{self.config.n_channels}), got {windows.shape}"
            )
        # The plan stages stream-layout input directly; no transpose copy here.
        outputs = self.plan.forward(windows, layout="nlc")
        # Plan buffers are reused on the next call: derive fresh float64 arrays.
        mean = outputs["mean"].astype(np.float64)
        if self.config.predict_delta:
            mean += windows[:, -1, :]
        log_var = np.clip(outputs["log_var"].astype(np.float64), -10.0, 10.0)
        return mean, log_var

    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorized variance scoring through the int8 plan."""
        self._check_fitted()
        windows, _ = self._validate_batch(windows, targets)
        _, log_var = self.predict_distribution(windows)
        return np.exp(log_var).mean(axis=1)

    def incremental_scorer(self) -> Optional[VaradeIncrementalScorer]:
        """Int8 per-stream O(1)-per-sample scorer, bit-identical to the batch
        path (``None`` where :meth:`VaradeIncrementalScorer.for_plan` says so)."""
        return VaradeIncrementalScorer.for_plan(self.plan)

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #
    def inference_cost(self) -> InferenceCost:
        """Int8 cost profile: same MACs, quarter the weight/activation bytes."""
        flops = 0.0
        activation_bytes = 0.0
        length = self.config.window
        for conv in self.plan.conv_layers:
            length = conv.output_length(length)
            flops += 2.0 * conv.out_channels * conv.in_channels * conv.kernel_size * length
            activation_bytes += conv.out_channels * length  # int8 activations
        for head in self.plan.heads.values():
            flops += 2.0 * head.in_features * head.out_features
            activation_bytes += head.out_features * 4  # float outputs
        launches = 2.0 * self.config.n_layers + 4.0
        return InferenceCost(
            flops=flops,
            parameter_bytes=float(self.plan.parameter_bytes()),
            activation_bytes=float(activation_bytes),
            gpu_fraction=0.95,
            parallel_efficiency=0.85,
            n_kernel_launches=launches,
            compute_dtype="int8",
        )
