"""Edge-platform substrate: device models, runtimes, estimation, monitoring.

The package provides two complementary views of running a detector on an
edge board:

* **Analytical** -- :mod:`repro.edge.device` describes the Jetson envelopes
  (AGX Orin, Xavier NX) and :mod:`repro.edge.estimator` translates a
  detector's :class:`~repro.core.detector.InferenceCost` into roofline-style
  frequency/power/RAM estimates; :mod:`repro.edge.monitor` replays them as a
  jetson-stats style telemetry session.
* **Executable** -- the streaming runtime replays a recording through a
  fitted detector and measures real host wall-clock costs.

Streaming runtime
-----------------

:class:`StreamingRuntime` is the paper's single-stream test script: one
sample from one stream per call to
:meth:`~repro.core.detector.AnomalyDetector.score_window`, with per-call
latency measurement and optional threshold alarms.  It is a thin driver
over one :class:`repro.serve.ScoringSession`, the same per-stream state
machine that serves many streams at once in :mod:`repro.serve`
(:class:`~repro.serve.AnomalyService` for live, unaligned pushes;
:meth:`repro.pipeline.Pipeline.deploy_fleet` for replaying N recordings
with one batched scoring call per round -- bit-identical scores to this
runtime, NaN prefix included; the parity suite lives in
``tests/test_edge/test_fleet_parity.py``).

Export -> quantize -> deploy
----------------------------

A fitted detector becomes a deployable edge artifact in three steps::

    detector.fit(train)                      # train on the normal stream
    detector.calibrate_threshold(train)      # attach the alarm threshold
    quantized = detector.quantize(train)     # int8 weights + activations

    from repro.serialize import save_detector, load_detector
    save_detector(detector, "artifacts/varade")          # float artifact
    save_detector(quantized, "artifacts/varade-int8")    # int8 artifact

    # ... on the edge device ...
    served = load_detector("artifacts/varade-int8")
    result = StreamingRuntime(served).run(reader)        # threshold included

The runtime (like every serving session) picks up the artifact's
calibrated threshold automatically; the estimator recognises int8 cost
profiles (``InferenceCost.compute_dtype == "int8"``) and applies the
device's integer-throughput multipliers on top of the smaller memory
footprint.
``benchmarks/bench_quantized_inference.py`` measures the realised float
vs int8 batched throughput and the score drift of quantization;
``tests/golden/`` freezes per-detector scores so refactors of any of this
pipeline cannot silently change the numbers.

Online drift adaptation
-----------------------

The runtime accepts an optional :class:`~repro.drift.AdaptationPolicy`
that turns the frozen deployment threshold into an adaptive one::

    from repro.drift import AdaptationPolicy

    runtime = StreamingRuntime(detector, adaptation=AdaptationPolicy())
    result = runtime.run(reader)
    result.adaptation_events      # confirmed drift recalibrations
    result.threshold_trace        # threshold applied at each scored sample

The policy watches the anomaly-score stream with a change detector
(Page-Hinkley by default), confirms a shift against the recent score
baseline, and re-derives the threshold with the same calibrator rule the
deployment used -- see :mod:`repro.drift` for the hysteresis/cooldown
machinery that keeps anomaly bursts from triggering self-blinding
recalibration.  Every serving session mints its own independent
adaptation state, so drift in one robot cell never recalibrates its
neighbours.  Alarm semantics: each sample is classified with the
threshold in effect *before* the sample is observed, so a no-drift run is
bit-identical -- scores and alarms -- to the non-adaptive path.
``benchmarks/bench_drift_adaptation.py`` measures the precision recovered
on the seeded drift scenarios of :func:`repro.data.build_drift_scenario`.
"""

from .device import DEVICES, EdgeDeviceSpec, JETSON_AGX_ORIN, JETSON_XAVIER_NX, get_device
from .estimator import EdgeEstimator, EdgeMetrics
from .monitor import (BoardMonitor, MetricSample, MonitoringSession,
                      StreamingHistogram)
from .runtime import StreamingResult, StreamingRuntime

__all__ = [
    "DEVICES",
    "EdgeDeviceSpec",
    "JETSON_AGX_ORIN",
    "JETSON_XAVIER_NX",
    "get_device",
    "EdgeEstimator",
    "EdgeMetrics",
    "BoardMonitor",
    "MetricSample",
    "MonitoringSession",
    "StreamingHistogram",
    "StreamingResult",
    "StreamingRuntime",
]
