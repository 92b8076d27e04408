"""Unified deployment pipeline: declarative spec -> fit -> calibrate ->
quantize -> package -> serve.

VARADE's pitch is an end-to-end edge workflow -- train a light variational
forecaster on normal data, calibrate an alarm threshold, optionally compress
to int8, ship a deployable artifact and serve it faster than the acquisition
rate.  Before this package, that workflow was five disconnected APIs
(``fit`` / ``calibrate_threshold`` / ``quantize()`` / ``save_detector`` /
``StreamingRuntime(adaptation=...)``) that every example and benchmark
re-wired by hand.  :mod:`repro.pipeline` is the one coherent, versioned
front door:

* :class:`DeploymentSpec` -- a declarative, JSON-round-trippable description
  of the whole deployment: detector kind + hyper-parameters, training
  settings, threshold calibration rule, optional int8 quantization, optional
  online drift adaptation, runtime/fleet settings and one master ``seed``
  that deterministically reaches every stage.
* :class:`Pipeline` -- the staged facade (``fit``, ``calibrate``,
  ``quantize``, ``package``, ``deploy_stream``, ``deploy_fleet``) plus the
  one-shot ``Pipeline.from_spec(spec).run(dataset)``.  A packaged artifact
  embeds the spec that produced it; :meth:`Pipeline.load` restores both on
  the edge device.
* :data:`DETECTORS` -- the string-keyed, decorator-based
  :class:`DetectorRegistry`.  VARADE, all five baselines and the
  int8-quantized VARADE register themselves (:mod:`repro.pipeline.builders`);
  third-party detectors can register additional kinds.

The ``python -m repro`` CLI (:mod:`repro.cli`) drives exactly this API with
``train`` / ``quantize`` / ``package`` / ``stream`` / ``bench`` subcommands,
so a deployment is reproducible from one spec file and one command line.

Quick example::

    from repro.pipeline import DeploymentSpec, DetectorSpec, Pipeline

    spec = DeploymentSpec(
        detector=DetectorSpec(kind="varade",
                              params={"window": 32, "base_feature_maps": 16},
                              training={"epochs": 16, "learning_rate": 3e-3}),
        seed=0,
    )
    report = Pipeline.from_spec(spec).run(dataset)   # fit + calibrate (+int8)
    print(report.serving_report.auc_roc, report.threshold.threshold)
"""

from . import builders  # noqa: F401  (registers the built-in detector kinds)
from .builders import DETECTOR_KINDS
from .pipeline import (DetectorReport, FleetResult, FleetStats, Pipeline,
                       PipelineReport, PipelineStageError, run_pipeline)
from .registry import DETECTORS, DetectorRegistry, RegisteredDetector
from .spec import (AdaptationSpec, CalibrationSpec, ClusterSpec, DataSpec,
                   DeploymentSpec, DetectorSpec, LifecycleSpec,
                   QuantizationSpec, RuntimeSpec, ServiceSpec, SpecError)

__all__ = [
    "DETECTOR_KINDS",
    "DETECTORS",
    "DetectorRegistry",
    "RegisteredDetector",
    "SpecError",
    "DetectorSpec",
    "DataSpec",
    "CalibrationSpec",
    "QuantizationSpec",
    "AdaptationSpec",
    "ClusterSpec",
    "LifecycleSpec",
    "ServiceSpec",
    "RuntimeSpec",
    "DeploymentSpec",
    "Pipeline",
    "PipelineReport",
    "DetectorReport",
    "FleetResult",
    "FleetStats",
    "PipelineStageError",
    "run_pipeline",
]
