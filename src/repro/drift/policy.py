"""Adaptive recalibration policy driven by score-stream drift detection.

The streaming runtimes freeze the calibrated threshold at deploy time; under
concept drift (a recalibrated sensor, a slow mechanical wear trend, a gain
change) the whole score distribution moves and the frozen threshold either
goes blind or alarms on everything.  :class:`AdaptationPolicy` closes the
loop: a :class:`~repro.drift.detectors.DriftDetector` watches the anomaly
scores, and once a detection is *confirmed* the decision threshold is
re-derived from recent scores with the same calibrator that produced the
original threshold (:meth:`repro.core.calibration.ThresholdCalibrator.matching`).

Anomaly bursts are the failure mode to defend against: a genuine anomaly
also raises the scores, and recalibrating on it would raise the threshold
until the anomaly is invisible -- self-blinding.  Three guards prevent that:

* **confirmation (hysteresis)** -- a drift flag opens a *pending* window of
  ``confirm_samples`` further scores; the shift must still be visible in the
  *second half* of that window (its median leaves the pre-drift reservoir's
  Tukey band, quartiles +/- ``confirm_iqr`` x IQR) before anything is
  recalibrated.  Quartiles keep the band robust to the anomaly fraction --
  a tail quantile would be set by the very anomalies the detector exists to
  flag.  A transient burst has ended by the time the tail of the window
  arrives, so it is rejected; a burst longer than half the confirmation
  window is, by construction, indistinguishable from drift.
* **cooldown + refinement** -- after a recalibration, further flags are
  ignored for ``cooldown`` samples, so one distribution change cannot
  trigger a chain of recalibrations while the detectors re-converge.  When
  the cooldown expires the threshold is *refined* once from the reservoir
  accumulated since the adaptation: the emergency threshold had to be
  derived from the few dozen scores of the confirmation tail, while the
  refinement sees several hundred post-drift samples (covering full signal
  periods), which de-biases the calibration quantile.
* **presumed-normal reservoir** -- scores more than ``reservoir_guard``
  times the current threshold are kept out of the baseline reservoir, so
  flagged-anomaly-sized scores never contaminate the band or a refinement.
* **robust recalibration** -- the new threshold is derived from the tail of
  the confirmation window (the scores that proved the shift persisted) with
  the original (quantile/MAD) calibrator, after trimming the calibration
  sample to its own Tukey fence: an anomaly burst that happens to sit
  inside the confirmation window would otherwise land directly in the
  calibration quantile and lift the new threshold above the anomalies
  themselves.

One policy object is a *configuration*; :meth:`AdaptationPolicy.start`
mints an independent :class:`AdaptationState` per stream (every serving
session keeps its own), so no change-point state is shared across streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from ..core.calibration import CalibratedThreshold, ThresholdCalibrator
from ..data.normalization import MinMaxScaler
from .detectors import DriftDetector, PageHinkley

__all__ = ["AdaptationEvent", "AdaptationPolicy", "AdaptationState"]


@dataclass(frozen=True)
class AdaptationEvent:
    """One confirmed drift detection and the recalibration it triggered."""

    flagged_at: int            # sample index of the confirmed drift flag
    adapted_at: int            # sample index from which the new threshold applies
    trigger: str               # name of the drift detector that fired
    old_threshold: float
    new_threshold: float
    n_calibration_scores: int  # scores the new threshold was derived from
    #: ``"recalibration"`` for the drift-triggered emergency threshold,
    #: ``"refinement"`` for the cooldown-end re-derivation from a full
    #: post-drift reservoir.
    kind: str = "recalibration"
    scaler_refreshed: bool = False
    #: refreshed input scaler (when the policy was asked to refit one);
    #: deployment code may adopt it for its pre-scoring normalisation.
    scaler: Optional[object] = field(default=None, repr=False, compare=False)


class AdaptationPolicy:
    """Configuration for online threshold adaptation on a score stream.

    Parameters
    ----------
    drift_detector:
        Prototype change detector; cloned (fresh state) per stream.  Defaults
        to a normalised :class:`~repro.drift.detectors.PageHinkley`.
    calibrator:
        Calibrator used to re-derive the threshold from recent scores.
        ``None`` (default) rebuilds one matching the stream's initial
        threshold, so online recalibration follows the same quantile/MAD
        rule as the offline deployment calibration.
    reservoir_size:
        How many recent finite scores form the pre-drift baseline reservoir.
    min_reservoir:
        Drift flags are ignored until the reservoir holds this many scores
        (no adaptation during the very first samples of a stream).
    confirm_samples:
        Length of the pending confirmation window opened by a drift flag.
        The second half of the window is the decision sample: it confirms
        the drift and calibrates the new threshold, so it must be long
        enough for the calibrator's statistic (about 50 samples for a 0.99
        quantile is workable; more is smoother).
    confirm_iqr:
        Half-width of the confirmation band in reservoir IQRs: the median
        of the pending window's second half must leave
        ``[q25 - confirm_iqr * IQR, q75 + confirm_iqr * IQR]`` (computed on
        a lagged reservoir snapshot) for the drift to be confirmed.
    trim_iqr:
        Upper Tukey fence (``q75 + trim_iqr * IQR`` of the calibration
        sample itself) applied before a threshold is calibrated, so an
        anomaly burst inside the sample cannot lift the new threshold above
        the anomalies.  Wider than the confirmation band on purpose: the
        trim must spare the skewed upper tail of the *normal* score
        distribution that the calibration quantile exists to measure.
    cooldown:
        Samples after a recalibration during which new flags are ignored,
        so one distribution change cannot trigger a recalibration chain.
        Refinement (``"refinement"`` events) re-derives the threshold from
        the reservoir accumulated since the adaptation, once when the
        cooldown expires (a quick correction of the emergency threshold)
        and once more when a full reservoir of post-drift scores exists --
        at which point the calibration sample is as large as an offline
        calibration's.
    reservoir_guard:
        Scores above ``guard x current threshold`` are treated as presumed
        anomalies and kept out of the baseline reservoir (``None``
        disables the guard; it is also inactive while the threshold is
        non-positive, where the multiple is meaningless).  The confirmation
        window is deliberately *not* guarded -- it has to see the shift.
    refresh_scaler:
        When true, a confirmed drift also refits an input scaler
        (``scaler_factory()``) on recent raw samples handed to
        :meth:`AdaptationState.observe`, and publishes it on the event and
        on :attr:`AdaptationState.scaler`.  Raw rows get the same
        presumed-normal admission as scores (anomaly-burst rows are kept
        out), the raw window is cut back to the confirmation window's rows
        at the recalibration (so the fit describes the drifted
        distribution, not a pre/post blend), and each refinement republishes
        a scaler fitted on the accumulated post-drift rows.  The runtimes
        never apply it -- scoring consumes the stream as given, exactly
        like ``fit`` did -- but deployment preprocessors can adopt it.
    """

    def __init__(self, drift_detector: Optional[DriftDetector] = None,
                 calibrator: Optional[ThresholdCalibrator] = None,
                 reservoir_size: int = 1024, min_reservoir: int = 100,
                 confirm_samples: int = 96, confirm_iqr: float = 2.0,
                 trim_iqr: float = 4.0,
                 cooldown: int = 400, reservoir_guard: Optional[float] = 2.5,
                 refresh_scaler: bool = False,
                 scaler_factory: Callable[[], object] = MinMaxScaler) -> None:
        if reservoir_size < 32:
            raise ValueError("reservoir_size must be at least 32")
        if not 1 <= min_reservoir <= reservoir_size:
            raise ValueError("min_reservoir must be in [1, reservoir_size]")
        if confirm_samples < 8:
            raise ValueError("confirm_samples must be at least 8")
        if confirm_iqr <= 0:
            raise ValueError("confirm_iqr must be positive")
        if trim_iqr <= 0:
            raise ValueError("trim_iqr must be positive")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if reservoir_guard is not None and reservoir_guard <= 1.0:
            raise ValueError("reservoir_guard must exceed 1 (or be None)")
        self.drift_detector = drift_detector if drift_detector is not None \
            else PageHinkley()
        self.calibrator = calibrator
        self.reservoir_size = reservoir_size
        self.min_reservoir = min_reservoir
        self.confirm_samples = confirm_samples
        self.confirm_iqr = confirm_iqr
        self.trim_iqr = trim_iqr
        self.cooldown = cooldown
        self.reservoir_guard = reservoir_guard
        self.refresh_scaler = refresh_scaler
        self.scaler_factory = scaler_factory

    def start(self, threshold: CalibratedThreshold) -> "AdaptationState":
        """Mint an independent per-stream adaptation state."""
        if threshold is None:
            raise ValueError(
                "adaptation needs an initial CalibratedThreshold to adapt; "
                "calibrate the detector (calibrate_threshold) or pass an "
                "explicit threshold to the runtime"
            )
        calibrator = self.calibrator if self.calibrator is not None \
            else ThresholdCalibrator.matching(threshold)
        return AdaptationState(policy=self, threshold=threshold,
                               calibrator=calibrator,
                               detector=self.drift_detector.clone())


class AdaptationState:
    """Per-stream drift/recalibration state machine.

    Created by :meth:`AdaptationPolicy.start`; the runtimes call
    :meth:`observe` once per scored sample *after* the sample's alarm has
    been decided, so an adaptation takes effect from the next sample on.
    """

    def __init__(self, policy: AdaptationPolicy, threshold: CalibratedThreshold,
                 calibrator: ThresholdCalibrator, detector: DriftDetector) -> None:
        self.policy = policy
        self.threshold = threshold
        self.calibrator = calibrator
        self.detector = detector
        self.events: List[AdaptationEvent] = []
        #: most recently refreshed input scaler, if any.
        self.scaler: Optional[object] = None
        self._reservoir: Deque[float] = deque(maxlen=policy.reservoir_size)
        self._raw: Deque[np.ndarray] = deque(maxlen=policy.reservoir_size)
        self._pending_raw: List[np.ndarray] = []
        self._pending: Optional[List[float]] = None
        self._flagged_at = -1
        self._cooldown_left = 0
        self._since_adapt = 0
        self._refine_schedule: List[int] = []

    # -- introspection --------------------------------------------------- #
    @property
    def reservoir_scores(self) -> np.ndarray:
        """Snapshot of the baseline reservoir (oldest first)."""
        return np.asarray(self._reservoir, dtype=np.float64)

    # -- the per-sample hook --------------------------------------------- #
    def observe(self, index: int, score: float,
                raw: Optional[np.ndarray] = None) -> Optional[AdaptationEvent]:
        """Feed one scored sample; return the event if this sample adapted.

        ``index`` is the stream sample index (used only for bookkeeping in
        the emitted events), ``score`` the anomaly score just produced and
        ``raw`` optionally the raw sample values (consumed by the scaler
        refresh).  Non-finite scores (the NaN warm-up prefix) are ignored.
        """
        score = float(score)
        if not np.isfinite(score):
            return None
        if raw is not None and self.policy.refresh_scaler \
                and self._passes_guard(score):
            # Raw samples get the same presumed-normal admission as scores:
            # a scaler fitted over an anomaly burst's raw rows would stretch
            # its range to the burst, not the normal signal.
            row = np.asarray(raw, dtype=np.float64).copy()
            self._raw.append(row)
            if self._pending is not None:
                # Side-collect the confirmation window's rows: if the drift
                # confirms, these are the only raws known to be post-drift.
                self._pending_raw.append(row)

        if self._pending is not None:
            self._pending.append(score)
            if len(self._pending) >= self.policy.confirm_samples:
                return self._close_pending(index)
            return None

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            self._admit(score)
            self.detector.update(score)
            return self._maybe_refine(index)

        flagged = self.detector.update(score)
        if flagged and len(self._reservoir) >= self.policy.min_reservoir:
            # Open the confirmation window; the flagging sample is its first
            # member so a step change contributes from sample one.
            self._pending = [score]
            self._flagged_at = index
            return None
        self._admit(score)
        return self._maybe_refine(index)

    # -- internals ------------------------------------------------------- #
    def _passes_guard(self, score: float) -> bool:
        """Whether a score is presumed normal under the reservoir guard.

        The guard treats scores far above the current threshold as presumed
        anomalies; the current threshold is the best available notion of
        "anomalous" at admission time.
        """
        guard = self.policy.reservoir_guard
        current = self.threshold.threshold
        return guard is None or current <= 0 or score <= guard * current

    def _admit(self, score: float) -> None:
        """Add a score to the baseline reservoir unless the guard rejects it."""
        if self._passes_guard(score):
            self._reservoir.append(score)

    def _presumed_normal(self, scores: np.ndarray) -> np.ndarray:
        """Trim a calibration sample to its own upper Tukey fence.

        Anomalies are high scores by the repo's convention, so only the
        upper tail is trimmed; the remainder is the "presumed normal"
        sample the threshold is calibrated on.  With nothing to trim the
        sample is returned unchanged.
        """
        q25, q75 = np.quantile(scores, (0.25, 0.75))
        fence = q75 + self.policy.trim_iqr * max(q75 - q25, 1e-12)
        trimmed = scores[scores <= fence]
        return trimmed if trimmed.size else scores

    def _maybe_refine(self, index: int) -> Optional[AdaptationEvent]:
        """Run a scheduled refinement when enough post-adaptation data exists."""
        if not self._refine_schedule:
            return None
        self._since_adapt += 1
        if self._since_adapt < self._refine_schedule[0]:
            return None
        if len(self._reservoir) < self.policy.confirm_samples:
            # Not enough data to calibrate yet (e.g. a cooldown shorter than
            # the confirmation window): keep the schedule entry and retry on
            # the next sample instead of silently dropping the refinement.
            return None
        self._refine_schedule.pop(0)
        return self._refine(index)

    def _refresh_scaler(self) -> Optional[object]:
        """Refit the input scaler on the guarded raw window, if asked to."""
        if not self.policy.refresh_scaler or len(self._raw) == 0:
            return None
        scaler = self.policy.scaler_factory()
        scaler.fit(np.stack(list(self._raw)))
        self.scaler = scaler
        return scaler

    def _refine(self, index: int) -> Optional[AdaptationEvent]:
        """Re-derive the threshold from the reservoir built since adapting."""
        scores = self.reservoir_scores
        old = self.threshold
        scores = self._presumed_normal(scores)
        self.threshold = self.calibrator.calibrate(scores)
        # A refinement sees a raw window dominated by post-drift samples,
        # so it also refreshes the published scaler.
        scaler = self._refresh_scaler()
        event = AdaptationEvent(
            flagged_at=index,
            adapted_at=index,
            trigger=self.detector.name,
            old_threshold=old.threshold,
            new_threshold=self.threshold.threshold,
            n_calibration_scores=int(scores.size),
            kind="refinement",
            scaler_refreshed=scaler is not None,
            scaler=scaler,
        )
        self.events.append(event)
        return event

    def _close_pending(self, index: int) -> Optional[AdaptationEvent]:
        pending = np.asarray(self._pending, dtype=np.float64)
        self._pending = None
        flagged_at = self._flagged_at
        self._flagged_at = -1

        # The decision sample is the *second half* of the confirmation
        # window: a flag can lead the actual shift (or trail a burst), but
        # if the scores are still displaced by the time the tail arrives the
        # shift is sustained.  The tail is also what the new threshold is
        # calibrated on -- it is the cleanest sample of the post-drift
        # distribution available.
        tail = pending[pending.size // 2:]
        reservoir = self.reservoir_scores
        # The newest reservoir entries are exactly where not-yet-flagged
        # drift accumulates (the change detector has a detection delay), so
        # the band is computed on a lagged snapshot when enough older
        # history exists -- otherwise early drift samples widen the band
        # until the drift confirms against itself.
        lag = self.policy.confirm_samples
        if reservoir.size - lag >= self.policy.min_reservoir:
            reservoir = reservoir[:-lag]
        q25 = float(np.quantile(reservoir, 0.25))
        q75 = float(np.quantile(reservoir, 0.75))
        fence = self.policy.confirm_iqr * max(q75 - q25, 1e-12)
        band_low = q25 - fence
        band_high = q75 + fence
        tail_median = float(np.median(tail))
        confirmed = not band_low <= tail_median <= band_high
        if not confirmed:
            # Hysteresis: the shift did not survive to the end of the
            # confirmation window (an anomaly burst, a spurious flag).
            # Fold the window back into the baseline through the guarded
            # admission path: flags systematically open on high-score
            # episodes, so silently discarding rejected windows would
            # censor the reservoir's upper tail and bias every later
            # calibration low.  The change detector's statistics are then
            # rebuilt from the reservoir: a bare reset would adopt whatever
            # comes next as the new baseline, blinding it to a sustained
            # shift it just failed to confirm.
            for value in pending:
                self._admit(value)
            self._pending_raw = []
            self.detector.reset()
            for value in self._reservoir:
                self.detector.update(value)
            # Short rejection cooldown: the replayed statistics often sit
            # just under the flag threshold, and an immediate re-flag would
            # chain pending windows back to back, starving the refinement
            # schedule and the baseline reservoir of fresh samples.
            self._cooldown_left = max(self._cooldown_left,
                                      self.policy.confirm_samples)
            return None

        old = self.threshold
        calibration = self._presumed_normal(tail)
        self.threshold = self.calibrator.calibrate(calibration)
        # The raw window is mostly *pre*-drift at confirmation time; keep
        # only the confirmation window's admitted rows (the post-drift
        # region) so the refreshed scaler -- now and at later refinements --
        # describes the drifted distribution, not a pre/post blend.
        if self.policy.refresh_scaler:
            self._raw.clear()
            self._raw.extend(self._pending_raw)
        self._pending_raw = []
        scaler = self._refresh_scaler()
        # The post-drift distribution is the new baseline (anomalous-sized
        # scores trimmed, like every other reservoir admission).
        self._reservoir.clear()
        self._reservoir.extend(calibration.tolist())
        self.detector.reset()
        self._cooldown_left = self.policy.cooldown
        self._since_adapt = 0
        self._refine_schedule = sorted({count for count in
                                        (self.policy.cooldown,
                                         self.policy.reservoir_size)
                                        if count > 0})
        event = AdaptationEvent(
            flagged_at=flagged_at,
            adapted_at=index,
            trigger=self.detector.name,
            old_threshold=old.threshold,
            new_threshold=self.threshold.threshold,
            n_calibration_scores=int(calibration.size),
            scaler_refreshed=scaler is not None,
            scaler=scaler,
        )
        self.events.append(event)
        return event
