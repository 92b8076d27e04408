"""Online drift detection and adaptive threshold recalibration.

VARADE's deployment story is unsupervised anomaly detection that keeps
working on the edge without a labelled retrain loop -- but a threshold and
scaler frozen at deploy time silently rot under concept drift (sensor
recalibration, gain changes, mechanical wear).  This package watches the
*anomaly-score stream* for distribution shift and recalibrates the decision
threshold online, with hysteresis so genuine anomaly bursts do not trigger
self-blinding recalibration.

* :mod:`repro.drift.detectors` -- sequential change detectors on the score
  stream: :class:`PageHinkley` (running-mean shift, std-normalised) and
  :class:`TwoWindowDrift` (rolling two-window KS / quantile-shift test).
* :mod:`repro.drift.policy` -- :class:`AdaptationPolicy`, the
  confirm-then-recalibrate state machine, minting one independent
  :class:`AdaptationState` per stream.

The streaming runtime and every serving session take the policy directly
(a deployment names it as ``DeploymentSpec.adaptation``)::

    from repro.drift import AdaptationPolicy
    from repro.edge import StreamingRuntime

    detector.calibrate_threshold(train)            # initial deployment state
    runtime = StreamingRuntime(detector, adaptation=AdaptationPolicy())
    result = runtime.run(reader)
    result.adaptation_events                       # confirmed drifts, if any

With no drift in the stream the adaptive path is bit-identical to the
frozen-threshold path; drift scenarios to exercise it live in
:mod:`repro.data.drift` and :mod:`repro.robot.drift`, the recovery metrics
in :mod:`repro.eval.adaptation`, and the end-to-end demonstration in
``benchmarks/bench_drift_adaptation.py``.
"""

from .detectors import DriftDetector, PageHinkley, TwoWindowDrift
from .policy import AdaptationEvent, AdaptationPolicy, AdaptationState

__all__ = [
    "DriftDetector",
    "PageHinkley",
    "TwoWindowDrift",
    "AdaptationEvent",
    "AdaptationPolicy",
    "AdaptationState",
]
