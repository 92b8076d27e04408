"""Common anomaly-detector API and the VARADE detector.

Every detector in the study (VARADE and the five baselines) implements the
same contract so the evaluation harness and the edge runtime can treat them
uniformly:

* :meth:`AnomalyDetector.fit` trains on a normalised, anomaly-free stream;
* :meth:`AnomalyDetector.score_stream` scores a whole test stream and returns
  per-sample anomaly scores aligned with the stream indices;
* :meth:`AnomalyDetector.score_windows_batch` -- the one scoring method a
  detector implements -- scores a batch of rolling windows in one call; the
  micro-batcher (:class:`repro.serve.MicroBatcher`) gathers the windows
  pending across all streams and amortises the per-call overhead across the
  whole batch.  A row's score must not depend on what else is in the batch;
  the parity suite in ``tests/test_edge/test_fleet_parity.py`` enforces this;
* :meth:`AnomalyDetector.score_window` scores a single rolling context window
  as a batch of one (defined once, on the base class);
* :meth:`AnomalyDetector.inference_cost` reports the per-inference compute and
  memory-traffic profile consumed by the edge device model;
* :meth:`AnomalyDetector.calibrate_threshold` attaches a
  :class:`~repro.core.calibration.CalibratedThreshold` derived from normal
  data, which the streaming runtimes pick up automatically and
  :mod:`repro.serialize` persists alongside the weights;
* :meth:`AnomalyDetector.quantize` returns an int8 post-training-quantized
  drop-in detector for models that support it (VARADE; see
  :mod:`repro.core.quantized`).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..data.windowing import WindowDataset
from .calibration import CalibratedThreshold, ThresholdCalibrator
from .config import TrainingConfig, VaradeConfig
from .varade import VaradeNetwork

__all__ = ["InferenceCost", "ScoreResult", "AnomalyDetector", "VaradeDetector",
           "VaradeIncrementalScorer"]


@dataclass(frozen=True)
class InferenceCost:
    """Per-inference cost profile used by the edge device model.

    ``flops`` counts multiply-accumulate-style floating point operations for a
    single inference (one new sample scored), ``parameter_bytes`` the model
    state that must be read, ``activation_bytes`` the intermediate values
    written, ``gpu_fraction`` the share of the work that benefits from the GPU
    (0 = pure CPU algorithm), ``parallel_efficiency`` how well the algorithm
    saturates wide SIMD/CUDA execution (matrix products parallelise well;
    sequential tree or time-step traversals do not), ``per_call_overhead_s``
    fixed per-inference work outside the kernels (pre/post-processing), and
    ``n_kernel_launches`` the number of separate framework operations
    dispatched per inference -- on edge devices running small models, the
    per-launch overhead usually dominates the raw arithmetic.

    ``compute_dtype`` names the arithmetic the kernels run in; int8 profiles
    (``"int8"``) unlock the device's integer-throughput multiplier in the
    edge estimator in addition to their smaller ``parameter_bytes``.
    """

    flops: float
    parameter_bytes: float
    activation_bytes: float
    gpu_fraction: float = 1.0
    parallel_efficiency: float = 1.0
    per_call_overhead_s: float = 0.0
    n_kernel_launches: float = 1.0
    #: bytes of weights actually read per inference; defaults to
    #: ``parameter_bytes`` but is larger for models (LSTMs) that re-read their
    #: weights at every time step.
    weight_traffic_bytes: Optional[float] = None
    #: arithmetic dtype of the kernels ("float32" or "int8").
    compute_dtype: str = "float32"

    @property
    def memory_traffic_bytes(self) -> float:
        weights = self.parameter_bytes if self.weight_traffic_bytes is None \
            else self.weight_traffic_bytes
        return weights + self.activation_bytes


@dataclass
class ScoreResult:
    """Anomaly scores aligned with the samples of a test stream."""

    scores: np.ndarray       # (n_samples,) np.nan where no score is available
    valid_mask: np.ndarray   # (n_samples,) bool
    window: int              # context length consumed before the first score

    def valid_scores(self) -> np.ndarray:
        return self.scores[self.valid_mask]

    def aligned(self, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (scores, labels) restricted to the scored samples."""
        labels = np.asarray(labels)
        if labels.shape[0] != self.scores.shape[0]:
            raise ValueError("labels length must match the scored stream length")
        return self.scores[self.valid_mask], labels[self.valid_mask]


@dataclass
class TrainingHistory:
    """Loss trace recorded during :meth:`AnomalyDetector.fit`."""

    epoch_losses: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def final_loss(self) -> Optional[float]:
        return self.epoch_losses[-1] if self.epoch_losses else None


class AnomalyDetector(abc.ABC):
    """Abstract base class shared by VARADE and every baseline."""

    #: human-readable name used in tables and figures
    name: str = "detector"

    #: how scores are aligned with the stream.  Forecasting-error detectors
    #: (AR-LSTM, GBRF) score the *next* observation against their prediction,
    #: so a sample's score uses the window that precedes it.  Detectors that
    #: score the state of the window itself (VARADE's uncertainty, the AE's
    #: reconstruction error) assign the score to the *last* sample of the
    #: window, so an anomalous sample influences its own score.
    scores_current_sample: bool = False

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self.history = TrainingHistory()
        self._fitted = False
        #: calibrated decision threshold (optional deployment state).  Set by
        #: :meth:`calibrate_threshold` / :meth:`set_threshold`; the streaming
        #: runtimes use it for alarms when no explicit threshold is passed and
        #: :mod:`repro.serialize` round-trips it with the weights.
        self.threshold: Optional[CalibratedThreshold] = None
        #: optional fitted input scaler (e.g. the training
        #: :class:`~repro.data.normalization.MinMaxScaler`) carried with the
        #: deployable artifact so deployment code can apply the training
        #: normalisation (``detector.scaler.transform(raw)``) to raw sensor
        #: streams before scoring.  The scoring paths and runtimes do NOT
        #: apply it automatically -- they expect already-normalised input,
        #: exactly like :meth:`fit` received.
        self.scaler = None

    # -- training ------------------------------------------------------- #
    @abc.abstractmethod
    def fit(self, train_data: np.ndarray) -> "AnomalyDetector":
        """Train on a normalised, anomaly-free stream of shape (T, channels)."""

    # -- scoring -------------------------------------------------------- #
    def score_window(self, window: np.ndarray, target: np.ndarray) -> float:
        """Score one step: ``window`` is (window, channels), ``target`` (channels,).

        A batch of one through :meth:`score_windows_batch`, so the
        sequential and batched paths share one code path (and therefore
        bit-identical scores).
        """
        return float(self.score_windows_batch(
            np.asarray(window, dtype=np.float64)[None, ...],
            np.asarray(target, dtype=np.float64).reshape(1, -1),
        )[0])

    @abc.abstractmethod
    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Score a batch of rolling windows in one call.

        ``windows`` has shape ``(n, window, channels)`` and ``targets``
        ``(n, channels)``; the result is the ``(n,)`` array of scores, each
        row's score bit-identical whatever else is in the batch.  The rows
        are independent -- they may come from different streams, which is
        exactly how :class:`repro.serve.MicroBatcher` amortises per-call
        overhead across a fleet of streams.
        """

    def score_stream(self, test_data: np.ndarray, batch_size: int = 256) -> ScoreResult:
        """Score every sample of a stream that has at least ``window`` history.

        Scoring is delegated to :meth:`score_windows_batch` in chunks of
        ``batch_size`` windows.
        """
        test_data = np.asarray(test_data, dtype=np.float64)
        self._check_fitted()
        n_samples = test_data.shape[0]
        scores = np.full(n_samples, np.nan)
        valid = np.zeros(n_samples, dtype=bool)
        # Window-state detectors score the last sample of the first full
        # window, so a stream of exactly `window` rows yields one score;
        # forecasters need one more row to have a target.
        min_rows = self.window if self.scores_current_sample else self.window + 1
        if n_samples < min_rows:
            return ScoreResult(scores=scores, valid_mask=valid, window=self.window)

        if self.scores_current_sample:
            from ..data.windowing import sliding_windows

            contexts = sliding_windows(test_data, self.window, stride=1)
            target_indices = np.arange(self.window - 1, n_samples)
            dataset = WindowDataset(contexts=contexts,
                                    targets=test_data[target_indices],
                                    target_indices=target_indices)
        else:
            dataset = WindowDataset.from_stream(test_data, self.window, horizon=1, stride=1)
        batch_scores = self._score_batch(dataset, batch_size=batch_size)
        scores[dataset.target_indices] = batch_scores
        valid[dataset.target_indices] = True
        return ScoreResult(scores=scores, valid_mask=valid, window=self.window)

    def _score_batch(self, dataset: WindowDataset, batch_size: int) -> np.ndarray:
        """Chunked batch scoring built on :meth:`score_windows_batch`."""
        output = np.empty(len(dataset))
        for start in range(0, len(dataset), batch_size):
            stop = min(start + batch_size, len(dataset))
            output[start:stop] = self.score_windows_batch(
                dataset.contexts[start:stop], dataset.targets[start:stop]
            )
        return output

    def incremental_scorer(self) -> Optional["VaradeIncrementalScorer"]:
        """Return a fresh per-stream incremental scorer, or ``None``.

        An incremental scorer advances one sample at a time in O(layers)
        work per sample and must produce **bit-identical** scores to
        :meth:`score_windows_batch` on the same windows -- it is a hot-path
        optimisation, never a different model.  The default is ``None``
        (no incremental path); detectors whose compute graph supports
        causal reuse (VARADE's strided conv stack, float and int8)
        override this.  Each call returns an independent scorer holding
        its own stream state, so every session gets its own.
        """
        return None

    # -- deployment state ------------------------------------------------ #
    def set_threshold(self, threshold: Optional[CalibratedThreshold]) -> "AnomalyDetector":
        """Attach (or clear) the calibrated decision threshold."""
        self.threshold = threshold
        return self

    def calibrate_threshold(self, normal_data: np.ndarray, *,
                            method: str = "quantile", quantile: float = 0.99,
                            mad_factor: float = 6.0,
                            batch_size: int = 256) -> CalibratedThreshold:
        """Calibrate and attach a decision threshold from a normal stream.

        Scores ``normal_data`` (a ``(T, channels)`` anomaly-free stream) with
        :meth:`score_stream` and derives the threshold from the resulting
        score distribution via :class:`~repro.core.calibration.ThresholdCalibrator`.
        The threshold is stored on :attr:`threshold` (picked up by the
        streaming runtimes and by :mod:`repro.serialize`) and returned.
        """
        result = self.score_stream(normal_data, batch_size=batch_size)
        calibrator = ThresholdCalibrator(method=method, quantile=quantile,
                                         mad_factor=mad_factor)
        self.threshold = calibrator.calibrate(result.valid_scores())
        return self.threshold

    # -- quantization ---------------------------------------------------- #
    def quantize(self, calibration_data: np.ndarray,
                 headroom: float = 2.0) -> "AnomalyDetector":
        """Return an int8 post-training-quantized drop-in detector.

        Only detectors with a quantizable compute graph override this;
        the default raises so callers can feature-test support.
        """
        raise NotImplementedError(
            f"{self.name} does not support post-training quantization"
        )

    # -- cost ----------------------------------------------------------- #
    @abc.abstractmethod
    def inference_cost(self) -> InferenceCost:
        """Per-inference compute/memory profile for the edge device model."""

    # -- helpers -------------------------------------------------------- #
    def _validate_batch(self, windows: np.ndarray,
                        targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Coerce and shape-check a ``score_windows_batch`` input pair."""
        windows = np.asarray(windows, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError("windows must have shape (n, window, channels)")
        if windows.shape[1] != self.window:
            raise ValueError(
                f"{self.name}: expected windows of {self.window} samples, "
                f"got {windows.shape[1]}"
            )
        if targets.ndim != 2 or targets.shape[0] != windows.shape[0]:
            raise ValueError("targets must have shape (n, channels) matching windows")
        if targets.shape[1] != windows.shape[2]:
            raise ValueError(
                f"channel mismatch: windows carry {windows.shape[2]} channels, "
                f"targets {targets.shape[1]}"
            )
        return windows, targets

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{self.name}: score called before fit()")

    def _mark_fitted(self) -> None:
        self._fitted = True


class VaradeIncrementalScorer:
    """O(1)-per-sample VARADE scoring around the streaming forward driver.

    Wraps a :class:`repro.nn.IncrementalForwardPlan` -- the one streaming
    driver, built over either numeric kernel (the float
    :class:`repro.nn.FastForwardPlan` or the int8
    :class:`repro.nn.QuantizedForwardPlan`) -- and maps the ``log_var``
    head to the paper's anomaly score -- the mean predicted variance --
    with exactly the clipping and reduction the batch path applies, so an
    incremental score is bit-identical to the ``score_windows_batch`` score
    of the same window.
    """

    def __init__(self, plan) -> None:
        self._plan = plan

    @classmethod
    def for_plan(cls, batch_plan) -> Optional["VaradeIncrementalScorer"]:
        """A fresh scorer streaming over ``batch_plan`` (float or int8).

        Only the ``log_var`` head is evaluated (the score never uses the
        mean).  Returns ``None`` when the conv stack cannot be updated
        causally (padded or non-right-anchored convs) or the float kernel's
        BLAS width-class probe rejects the incremental call shapes --
        callers fall back to ``score_windows_batch``.
        """
        try:
            return cls(nn.IncrementalForwardPlan(batch_plan, heads=("log_var",)))
        except (TypeError, ValueError):
            return None

    def reset(self) -> None:
        """Forget all stream state (call on any gap in the stream)."""
        self._plan.reset()

    def push(self, values: np.ndarray) -> Optional[float]:
        """Advance by one sample; return its score, ``None`` while warming."""
        heads = self._plan.push(values)
        if heads is None:
            return None
        return float(self._score_rows(heads["log_var"])[0])

    def push_many(self, samples: np.ndarray) -> np.ndarray:
        """Advance by a chunk of samples; NaN rows mark the warm-up prefix."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim == 2 and samples.shape[0] == 1:
            # One row: the single-column push skips the chunk set-up, which
            # costs more than the row itself at serving sizes (same bits).
            heads = self._plan.push(samples[0])
            if heads is None:
                return np.full(1, np.nan)
            return self._score_rows(heads["log_var"])
        heads = self._plan.push_many(samples)
        return self._score_rows(heads["log_var"])

    @property
    def warmup_left(self) -> int:
        """Leading rows of the next push (or chunk) that will score ``None``
        (NaN): the rest of the warm-up, or a fresh one after a weight swap."""
        return self._plan.warmup_left

    @property
    def samples_seen(self) -> int:
        """Rows pushed since construction or the last warm-up restart; a
        push scores once this reaches the window length."""
        return self._plan.samples_seen

    @staticmethod
    def _score_rows(log_var: np.ndarray) -> np.ndarray:
        # Same ops as VaradeDetector/QuantizedVaradeDetector scoring: cast,
        # clip to the trained range, exponentiate, per-row mean.  The
        # reduction runs along contiguous rows, so its summation order --
        # and therefore its bits -- is batch-size independent; NaN warm-up
        # rows propagate to NaN scores.
        log_var = np.clip(np.asarray(log_var, dtype=np.float64), -10.0, 10.0)
        return np.exp(log_var).mean(axis=1)


class VaradeDetector(AnomalyDetector):
    """VARADE: variational autoregressive anomaly detection (the paper's method).

    The detector trains the :class:`VaradeNetwork` on normal data with the
    negative-ELBO objective (Gaussian NLL + weighted KL) and, at inference,
    uses the predicted variance -- the model's own uncertainty -- as the
    anomaly score.  The mean prediction is discarded at inference time, as in
    the paper.
    """

    name = "VARADE"
    scores_current_sample = True

    def __init__(self, config: VaradeConfig,
                 training: Optional[TrainingConfig] = None) -> None:
        super().__init__(window=config.window)
        self.config = config
        self.training = training if training is not None else TrainingConfig()
        self._rng = np.random.default_rng(self.training.seed)
        self.network = VaradeNetwork(config, rng=self._rng)
        self.optimizer: Optional[nn.Adam] = None

    # -- training ------------------------------------------------------- #
    def fit(self, train_data: np.ndarray) -> "VaradeDetector":
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2 or train_data.shape[1] != self.config.n_channels:
            raise ValueError(
                f"expected training data of shape (T, {self.config.n_channels})"
            )
        start = time.perf_counter()
        dataset = WindowDataset.from_stream(
            train_data, self.config.window, horizon=1, stride=self.training.window_stride
        ).subsample(self.training.max_train_windows, rng=self._rng)

        self.optimizer = nn.Adam(self.network.parameters(), lr=self.training.learning_rate)
        self.network.train()
        for epoch in range(self.training.epochs):
            warmup = epoch < self.training.mean_warmup_epochs
            epoch_losses: List[float] = []
            for contexts, targets in dataset.batches(self.training.batch_size,
                                                     shuffle=True, rng=self._rng):
                inputs = nn.Tensor(np.transpose(contexts, (0, 2, 1)))
                target_tensor = nn.Tensor(targets)
                mean, log_var = self.network(inputs)
                if warmup:
                    # Fit the mean first; the variance head keeps its neutral
                    # initialisation until the forecasts are sensible.
                    loss = nn.mse_loss(mean, target_tensor)
                else:
                    loss = nn.elbo_loss(target_tensor, mean, log_var,
                                        kl_weight=self.config.kl_weight)
                self.optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.network.parameters(), self.training.gradient_clip)
                self.optimizer.step()
                epoch_losses.append(loss.item())
            self.history.epoch_losses.append(float(np.mean(epoch_losses)))

        # Variance calibration: with the forecaster frozen, fit the
        # log-variance head alone under the full ELBO so the predicted
        # variance tracks the context-dependent uncertainty (the anomaly
        # score the paper relies on).
        if self.training.variance_finetune_epochs > 0:
            head = self.network.head_log_var
            var_optimizer = nn.Adam([head.weight, head.bias],
                                    lr=self.training.variance_finetune_lr)
            for _ in range(self.training.variance_finetune_epochs):
                epoch_losses = []
                for contexts, targets in dataset.batches(self.training.batch_size,
                                                         shuffle=True, rng=self._rng):
                    inputs = nn.Tensor(np.transpose(contexts, (0, 2, 1)))
                    target_tensor = nn.Tensor(targets)
                    mean, log_var = self.network(inputs)
                    loss = nn.elbo_loss(target_tensor, mean.detach(), log_var,
                                        kl_weight=self.config.kl_weight)
                    var_optimizer.zero_grad()
                    loss.backward()
                    var_optimizer.step()
                    epoch_losses.append(loss.item())
                self.history.epoch_losses.append(float(np.mean(epoch_losses)))

        self.network.eval()
        self.history.wall_time_s = time.perf_counter() - start
        self._mark_fitted()
        return self

    # -- scoring -------------------------------------------------------- #
    def score_windows_batch(self, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Mean predicted variance per row: one fast-path forward for all rows.

        ``targets`` is part of the common detector API but is not used:
        VARADE scores from its own uncertainty, before the next sample is
        even observed.
        """
        self._check_fitted()
        windows, _ = self._validate_batch(windows, targets)
        _, log_var = self.network.predict_distribution(windows)
        return np.exp(log_var).mean(axis=1)

    def incremental_scorer(self) -> Optional[VaradeIncrementalScorer]:
        """Per-stream O(1)-per-sample scorer, bit-identical to the batch path
        (``None`` where :meth:`VaradeIncrementalScorer.for_plan` says so)."""
        self._check_fitted()
        return VaradeIncrementalScorer.for_plan(self.network._fast_plan)

    def forecast(self, window: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (mean, variance) of the next-sample distribution for one window."""
        self._check_fitted()
        mean, log_var = self.network.predict_distribution(window[None, ...])
        return mean[0], np.exp(log_var)[0]

    # -- quantization ---------------------------------------------------- #
    def quantize(self, calibration_data: np.ndarray,
                 headroom: float = 2.0) -> "AnomalyDetector":
        """Int8 post-training quantization of the fitted network.

        ``calibration_data`` is either a normal stream of shape
        ``(T, channels)`` (windowed internally) or an explicit batch of
        context windows ``(n, window, channels)``; its activation ranges,
        widened by ``headroom`` so abnormal windows do not saturate, set the
        per-tensor int8 scales.  Returns a
        :class:`~repro.core.quantized.QuantizedVaradeDetector` that serves
        the same :meth:`score_windows_batch` contract (and inherits this
        detector's calibrated threshold and scaler, if any).
        """
        from .quantized import QuantizedVaradeDetector

        self._check_fitted()
        return QuantizedVaradeDetector.from_detector(self, calibration_data,
                                                     headroom=headroom)

    # -- cost ----------------------------------------------------------- #
    def inference_cost(self) -> InferenceCost:
        profile = nn.profile_model(
            self.network, (self.config.n_channels, self.config.window)
        )
        # One convolution + one activation per layer, plus the two linear heads
        # and the flatten/clip bookkeeping.
        launches = 2.0 * self.config.n_layers + 4.0
        return InferenceCost(
            flops=float(profile.total_flops),
            parameter_bytes=float(profile.parameter_bytes),
            activation_bytes=float(profile.total_activation_bytes),
            gpu_fraction=0.95,
            parallel_efficiency=0.85,
            n_kernel_launches=launches,
        )
