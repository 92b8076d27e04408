"""Streaming inference runtime.

The paper tests every detector "by a software script that continuously reads
data from the sensors, prepares the data by applying a preprocessing
function, and calls the inference function".  :class:`StreamingRuntime`
reproduces that loop against a replayed recording: it maintains the rolling
context window, calls the detector's streaming scorer for every new sample,
measures the host wall-clock cost of each call, and (optionally) thresholds
the scores into alarms.

Host wall-clock timings are reported alongside the analytical edge estimates
(:mod:`repro.edge.estimator`): the host numbers validate that the relative
cost ranking of the detectors emerges from real execution, while the
estimates translate the workload onto the Jetson device envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.calibration import CalibratedThreshold
from ..core.detector import AnomalyDetector
from ..data.streaming import StreamReader
from ..drift.policy import AdaptationEvent, AdaptationPolicy

__all__ = ["StreamingResult", "StreamingRuntime", "resolve_threshold"]


def resolve_threshold(explicit: Optional[CalibratedThreshold],
                      detector: AnomalyDetector) -> Optional[CalibratedThreshold]:
    """Alarm-threshold policy shared by the runtime and every serving session.

    An explicitly passed threshold wins; otherwise the detector's own
    calibrated threshold (e.g. restored by
    :func:`repro.serialize.load_detector`) is used, and ``None`` means no
    alarms.  Called at run time, so a threshold calibrated after a runtime
    was constructed is still picked up.
    """
    if explicit is not None:
        return explicit
    return getattr(detector, "threshold", None)


@dataclass
class StreamingResult:
    """Outcome of one streaming run."""

    detector: str
    scores: np.ndarray            # (n_samples,) np.nan before the window fills
    labels: np.ndarray            # (n_samples,)
    alarms: np.ndarray            # (n_samples,) 0/1, only meaningful with a threshold
    latencies_s: np.ndarray       # per-inference host wall-clock times
    samples_scored: int
    #: confirmed drift recalibrations, in stream order (empty without an
    #: :class:`~repro.drift.AdaptationPolicy` or when no drift was confirmed).
    adaptation_events: List[AdaptationEvent] = field(default_factory=list)
    #: threshold in effect at each scored sample (np.nan elsewhere / without a
    #: threshold) -- a constant trace for frozen runs, stepwise for adaptive.
    threshold_trace: Optional[np.ndarray] = None

    @property
    def mean_latency_s(self) -> float:
        return float(self.latencies_s.mean()) if self.latencies_s.size else float("nan")

    @property
    def host_inference_hz(self) -> float:
        """Inferences per second implied by the mean host latency.

        ``nan`` when nothing was scored, ``inf`` when samples were scored but
        every latency was below the timer resolution.  (A mean of exactly 0.0
        used to fall through a ``mean and ...`` truthiness check and silently
        report ``nan``, indistinguishable from the empty run.)
        """
        mean = self.mean_latency_s
        if not np.isfinite(mean):
            return float("nan")
        if mean <= 0.0:
            return float("inf")
        return 1.0 / mean

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.scores)


class StreamingRuntime:
    """Run a detector over a replayed stream the way the edge script does.

    When no explicit ``threshold`` is passed, the detector's own calibrated
    threshold (:attr:`repro.core.detector.AnomalyDetector.threshold`, e.g.
    restored by :func:`repro.serialize.load_detector`) is used for alarms.
    The fallback is resolved at :meth:`run` time, so a threshold calibrated
    after the runtime was built is still picked up.

    An optional :class:`~repro.drift.AdaptationPolicy` turns the frozen
    threshold into an adaptive one: every scored sample is fed to the
    policy's drift detector and a *confirmed* drift re-derives the threshold
    from recent scores.  A sample's alarm always uses the threshold in
    effect *before* that sample was observed (classify, then learn), so an
    adaptation takes effect from the next sample on, and a run in which no
    drift is confirmed is bit-identical -- scores and alarms -- to the
    frozen run.  The confirmed recalibrations are reported on
    :attr:`StreamingResult.adaptation_events`.
    """

    def __init__(self, detector: AnomalyDetector,
                 threshold: Optional[CalibratedThreshold] = None,
                 adaptation: Optional[AdaptationPolicy] = None,
                 incremental: bool = True) -> None:
        self.detector = detector
        #: explicit override; ``None`` defers to the detector's threshold.
        self.threshold = threshold
        #: optional online drift adaptation policy; ``None`` keeps the
        #: threshold frozen for the whole run.
        self.adaptation = adaptation
        #: score via the detector's O(1)-per-sample incremental scorer when
        #: it offers one (bit-identical to the batch path; detectors
        #: without one ignore this).  Benchmarks pin it off to compare the
        #: per-window batch call in isolation.
        self.incremental = incremental

    def _resolve_threshold(self) -> Optional[CalibratedThreshold]:
        return resolve_threshold(self.threshold, self.detector)

    def run(self, reader: StreamReader, max_samples: Optional[int] = None) -> StreamingResult:
        """Stream ``reader`` through the detector.

        ``max_samples`` limits how many samples are scored (after the context
        window fills), which keeps latency measurements cheap for the slower
        detectors.

        Implemented as the inline-scoring spelling of a
        :class:`repro.serve.ScoringSession` -- the same window/threshold/
        adaptation state machine that serves the micro-batched
        :class:`~repro.serve.AnomalyService`, so the sequential and served
        paths cannot drift apart.
        """
        from ..serve.session import ScoringSession

        session = ScoringSession(
            self.detector,
            stream_id="stream-0",
            threshold=self.threshold,
            adaptation=self.adaptation,
            max_samples=max_samples,
            record=True,
            incremental=self.incremental,
        )
        for sample in reader:
            session.push(sample.values)
        return session.result(labels=reader.labels)
