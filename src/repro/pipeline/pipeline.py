"""The staged deployment pipeline facade.

:class:`Pipeline` is the one front door to VARADE's end-to-end edge
workflow.  It is driven entirely by a declarative
:class:`~repro.pipeline.spec.DeploymentSpec` and exposes the workflow as
explicit stages that can be run one at a time or all at once::

    spec = DeploymentSpec(detector=DetectorSpec(kind="varade",
                                                params={"window": 32},
                                                training={"epochs": 16}))
    pipe = Pipeline.from_spec(spec)
    pipe.fit(train)                       # build (via the registry) + train
    pipe.calibrate()                      # threshold from the training scores
    pipe.quantize()                       # optional: spec.quantization
    pipe.package("artifacts/varade")      # deployable dir, spec embedded
    result = pipe.deploy_stream(test)     # replay through StreamingRuntime

    # or, one shot:
    report = Pipeline.from_spec(spec).run(dataset)

Every stage validates its preconditions and raises
:class:`PipelineStageError` with the stage order when called out of order.
A packaged artifact records the full spec that produced it, so
:meth:`Pipeline.load` restores both the serving detector and the deployment
configuration on the edge device.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..core.calibration import CalibratedThreshold
from ..core.detector import AnomalyDetector, ScoreResult
from ..data.streaming import StreamReader
from ..edge.monitor import StreamingHistogram
from ..edge.runtime import StreamingResult, StreamingRuntime
from ..serialize import (UnknownDetectorError, load_detector, read_manifest,
                         save_detector)
from .registry import DETECTORS
from .spec import DeploymentSpec, SpecError

__all__ = ["PipelineStageError", "DetectorReport", "PipelineReport",
           "FleetStats", "FleetResult", "Pipeline"]

ArrayLike = Union[np.ndarray, Sequence[Sequence[float]]]


class PipelineStageError(RuntimeError):
    """A pipeline stage was invoked before its prerequisites ran."""


@dataclass
class DetectorReport:
    """Accuracy and timing of one serving detector inside a pipeline run."""

    name: str
    auc_roc: Optional[float]
    average_precision: Optional[float]
    best_f1: Optional[float]
    samples_scored: int
    score_result: ScoreResult = field(repr=False)


@dataclass
class PipelineReport:
    """Outcome of a one-shot :meth:`Pipeline.run`."""

    spec: DeploymentSpec
    threshold: CalibratedThreshold
    train_time_s: float
    float_report: DetectorReport
    quantized_report: Optional[DetectorReport] = None

    @property
    def serving_report(self) -> DetectorReport:
        return self.quantized_report if self.quantized_report is not None \
            else self.float_report


@dataclass
class FleetStats:
    """Throughput profile of one :meth:`Pipeline.deploy_fleet` replay.

    Everything but the wall clock is read off the replay's
    :class:`~repro.serve.MicroBatcher` when it has drained.
    """

    samples_scored: int            # across all streams
    flushes: int                   # batched scoring calls
    wall_time_s: float             # whole replay, windowing + scoring
    scoring_time_s: float          # inside score_windows_batch calls
    #: streaming enqueue-to-score latency summary (p50/p95/p99 without
    #: retaining the trace)
    latency_histogram: StreamingHistogram = field(repr=False)
    #: streaming batch-occupancy summary (rows per flush)
    occupancy_histogram: StreamingHistogram = field(repr=False)

    @property
    def samples_per_second(self) -> float:
        """End-to-end scored-sample throughput of the whole fleet."""
        if self.samples_scored == 0:
            return 0.0
        if self.wall_time_s <= 0.0:
            return float("inf")
        return self.samples_scored / self.wall_time_s

    @property
    def mean_batch_size(self) -> float:
        return self.samples_scored / self.flushes if self.flushes else 0.0


@dataclass
class FleetResult:
    """Per-stream results plus fleet-wide throughput stats."""

    results: List[StreamingResult]  # one per input stream, in input order
    stats: FleetStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[StreamingResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> StreamingResult:
        return self.results[index]


class Pipeline:
    """Staged ``fit -> calibrate -> quantize -> package -> deploy`` facade."""

    def __init__(self, spec: DeploymentSpec) -> None:
        if not isinstance(spec, DeploymentSpec):
            raise SpecError(
                f"Pipeline needs a DeploymentSpec, got {type(spec).__name__}"
            )
        # Fail at construction, not at fit time, when the kind is unknown.
        # Re-raised as SpecError: at this boundary an unknown kind is a bad
        # spec, not a serialization failure.
        try:
            DETECTORS.get(spec.detector.kind)
        except UnknownDetectorError as error:
            raise SpecError(str(error)) from error
        self.spec = spec
        self._detector: Optional[AnomalyDetector] = None
        self._quantized: Optional[AnomalyDetector] = None
        #: the packaged artifact directory this pipeline was load()ed from
        #: (None for freshly fitted pipelines); lets deploy_service stamp
        #: the artifact fingerprint on the service it builds.
        self.artifact_dir: Optional[Path] = None
        self._train_data: Optional[np.ndarray] = None
        #: calibrate()'s scores over the training stream, reused by the
        #: no-test-split evaluation fallback to avoid a second full pass.
        self._train_scores: Optional[ScoreResult] = None

    # ------------------------------------------------------------------ #
    # Construction / restoration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: DeploymentSpec) -> "Pipeline":
        """The canonical entry point: a pipeline configured by its spec."""
        return cls(spec)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Pipeline":
        """Restore a pipeline from a packaged artifact directory.

        The artifact's embedded ``deployment_spec`` manifest entry rebuilds
        the spec; the saved detector becomes the pipeline's serving
        detector (float or quantized, whichever was packaged).
        """
        manifest = read_manifest(path)
        spec_entry = manifest.get("deployment_spec")
        detector = load_detector(path, manifest=manifest)
        if spec_entry is not None:
            spec = DeploymentSpec.from_dict(spec_entry)
        else:
            # Legacy artifact without an embedded spec: synthesise a minimal
            # one from the registry kind so the staged methods keep working.
            from .spec import DetectorSpec

            spec = DeploymentSpec(
                detector=DetectorSpec(kind=DETECTORS.kind_for(detector)))
        pipeline = cls(spec)
        pipeline.artifact_dir = Path(path)
        # Inference-only registry kinds (the int8 VARADE) restore into the
        # quantized slot; everything else is the float detector.
        if DETECTORS.get(DETECTORS.kind_for(detector)).trainable:
            pipeline._detector = detector
        else:
            pipeline._quantized = detector
        return pipeline

    # ------------------------------------------------------------------ #
    # Stage accessors
    # ------------------------------------------------------------------ #
    @property
    def detector(self) -> AnomalyDetector:
        """The float detector (after :meth:`fit` or :meth:`load`)."""
        if self._detector is None:
            raise PipelineStageError(
                "no float detector yet: call fit() (or load a float artifact)"
            )
        return self._detector

    @property
    def quantized(self) -> AnomalyDetector:
        """The int8 detector (after :meth:`quantize` or an int8 :meth:`load`)."""
        if self._quantized is None:
            raise PipelineStageError(
                "no quantized detector yet: add a quantization entry to the "
                "spec and call quantize()"
            )
        return self._quantized

    @property
    def serving_detector(self) -> AnomalyDetector:
        """The detector that deploys: the int8 artifact when one exists."""
        if self._quantized is not None:
            return self._quantized
        return self.detector

    def build_detector(self, n_channels: Optional[int] = None) -> AnomalyDetector:
        """Construct the spec's (unfitted) detector via the registry.

        ``DeploymentSpec.seed`` and ``n_channels`` are injected into the
        config wherever the spec does not pin them explicitly.  The seed
        lands where the kind keeps it: in the training config for kinds
        with a separate one (VARADE), in the detector config otherwise.
        Exposed separately from :meth:`fit` so harnesses that own their
        training loop (e.g. :func:`repro.eval.run_full_experiment`) still
        construct detectors through the declarative path.
        """
        entry = DETECTORS.get(self.spec.detector.kind)
        params = dict(self.spec.detector.params)
        if n_channels is not None:
            params.setdefault("n_channels", n_channels)
        training = self.spec.detector.training
        if entry.accepts_training:
            training = dict(training) if training is not None else {}
            training.setdefault("seed", self.spec.seed)
        else:
            params.setdefault("seed", self.spec.seed)
        try:
            return entry.build(params, training)
        except UnknownDetectorError as error:
            # e.g. an inference-only kind (varade_int8) named as the spec's
            # trainable detector -- a bad spec at this boundary.
            raise SpecError(str(error)) from error

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def fit(self, train_data: ArrayLike) -> "Pipeline":
        """Build the detector from the spec and train it on ``train_data``."""
        train_data = np.asarray(train_data, dtype=np.float64)
        if train_data.ndim != 2:
            raise ValueError("train_data must have shape (T, channels)")
        detector = self.build_detector(n_channels=train_data.shape[1])
        detector.fit(train_data)
        self._detector = detector
        self._quantized = None          # stale int8 state dies with a refit
        self._train_data = train_data
        self._train_scores = None       # so do cached calibration scores
        return self

    def calibrate(self, normal_data: Optional[ArrayLike] = None) -> "Pipeline":
        """Calibrate and attach the alarm threshold per ``spec.calibration``.

        ``normal_data`` defaults to the stream :meth:`fit` trained on --
        the paper's protocol (threshold from the normal score
        distribution).
        """
        detector = self.detector
        if normal_data is None:
            if self._train_data is None:
                raise PipelineStageError(
                    "calibrate() without data needs a fit() in this pipeline; "
                    "pass an explicit normal stream to calibrate on"
                )
            normal_data = self._train_data
        on_train_stream = normal_data is self._train_data
        scores = detector.score_stream(np.asarray(normal_data, dtype=np.float64))
        if on_train_stream and detector is self._detector:
            self._train_scores = scores
        threshold = self.spec.calibration.calibrator().calibrate(scores.valid_scores())
        detector.set_threshold(threshold)
        if self._quantized is not None:
            self._quantized.set_threshold(threshold)
        return self

    def quantize(self, calibration_data: Optional[ArrayLike] = None) -> "Pipeline":
        """Produce the int8 drop-in detector per ``spec.quantization``."""
        if self.spec.quantization is None:
            raise PipelineStageError(
                "spec has no quantization entry; add one to enable this stage"
            )
        detector = self.detector
        if calibration_data is None:
            if self._train_data is None:
                raise PipelineStageError(
                    "quantize() without data needs a fit() in this pipeline; "
                    "pass explicit calibration windows or a normal stream"
                )
            calibration_data = self._train_data
        self._quantized = detector.quantize(
            np.asarray(calibration_data, dtype=np.float64),
            headroom=self.spec.quantization.headroom,
        )
        return self

    def package(self, path: Union[str, Path], *,
                overwrite: bool = False) -> Path:
        """Save the serving detector as a deployable artifact directory.

        The artifact embeds the full deployment spec in its manifest, so
        the edge side (:meth:`load`) restores configuration and weights
        from one directory.  Returns the artifact path;
        :func:`repro.serialize.artifact_fingerprint` of two packages from
        the same spec is identical.
        """
        return save_detector(
            self.serving_detector, path, overwrite=overwrite,
            extra_manifest={"deployment_spec": self.spec.to_dict()},
        )

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def deploy_stream(self, stream: ArrayLike,
                      labels: Optional[np.ndarray] = None,
                      max_samples: Optional[int] = None):
        """Replay one stream through :class:`repro.edge.StreamingRuntime`.

        The serving detector's calibrated threshold drives the alarms and
        ``spec.adaptation`` (when present) enables online threshold
        recalibration.  Returns the runtime's ``StreamingResult``.
        """
        reader = StreamReader(np.asarray(stream, dtype=np.float64), labels=labels,
                              sample_rate=self.spec.runtime.sample_rate_hz)
        adaptation = None if self.spec.adaptation is None \
            else self.spec.adaptation.policy()
        runtime = StreamingRuntime(self.serving_detector, adaptation=adaptation)
        if max_samples is None:
            max_samples = self.spec.runtime.max_samples
        return runtime.run(reader, max_samples=max_samples)

    def deploy_fleet(self, streams: Sequence[ArrayLike],
                     labels: Optional[Sequence[np.ndarray]] = None,
                     max_samples: Optional[int] = None) -> FleetResult:
        """Replay N recordings through the serving detector, batched.

        One recording :class:`repro.serve.ScoringSession` per stream feeds
        one shared :class:`repro.serve.MicroBatcher` through the offline
        :func:`repro.serve.replay_streams` loop, so each round of the fleet
        is a single ``score_windows_batch`` call.  Streams may differ in
        length but must share the detector's channel count.  The per-stream
        :class:`repro.edge.StreamingResult`\\ s are bit-identical to
        :meth:`deploy_stream` run once per stream -- NaN warm-up prefix,
        ``max_samples`` budget (per stream), thresholded alarms and one
        independent ``spec.adaptation`` lane per stream included.
        """
        from ..serve import MicroBatcher, ScoringSession, replay_streams

        if len(streams) == 0:
            raise ValueError("deploy_fleet needs at least one stream")
        if labels is None:
            labels = [None] * len(streams)
        if len(labels) != len(streams):
            raise ValueError("labels must match streams one to one")
        readers = [
            StreamReader(np.asarray(stream, dtype=np.float64), labels=stream_labels,
                         sample_rate=self.spec.runtime.sample_rate_hz)
            for stream, stream_labels in zip(streams, labels)
        ]
        detector = self.serving_detector
        adaptation = None if self.spec.adaptation is None \
            else self.spec.adaptation.policy()
        if max_samples is None:
            max_samples = self.spec.runtime.max_samples
        # incremental=False: the point of a fleet replay is the one batched
        # call per round; per-sample incremental pushes would serialise it.
        sessions = [
            ScoringSession(detector, f"stream-{position}",
                           adaptation=adaptation, max_samples=max_samples,
                           incremental=False)
            for position in range(len(readers))
        ]
        batcher = MicroBatcher(detector, max_batch=len(readers),
                               max_delay_ms=0.0)
        start = time.perf_counter()
        for _ in replay_streams(sessions, [reader.data for reader in readers],
                                batcher):
            pass
        wall_time = time.perf_counter() - start
        return FleetResult(
            results=[session.result(labels=reader.labels)
                     for session, reader in zip(sessions, readers)],
            stats=FleetStats(
                samples_scored=batcher.scored,
                flushes=batcher.flushes,
                wall_time_s=wall_time,
                scoring_time_s=batcher.scoring_time_s,
                latency_histogram=batcher.queue_delay_histogram,
                occupancy_histogram=batcher.occupancy_histogram,
            ),
        )

    def service_config(self, **overrides: Any):
        """``spec.service`` as a :class:`repro.serve.ServiceConfig` (the
        library defaults without one), ``overrides`` on top."""
        from ..serve import ServiceConfig

        spec = self.spec.service
        return ServiceConfig(**overrides) if spec is None \
            else spec.config(**overrides)

    def deploy_service(self, config: Optional[Any] = None,
                       record_sessions: bool = False,
                       alarm_sinks: Any = ()):
        """Build the :class:`repro.serve.AnomalyService` for this deployment.

        The serving detector (int8 when one exists), its calibrated
        threshold, ``spec.adaptation`` (one independent lane per session)
        and ``spec.service`` (micro-batcher sizing, backpressure policy,
        scaler application, observability switches) configure the service;
        an explicit ``config`` (:class:`repro.serve.ServiceConfig`)
        overrides the spec section.  ``alarm_sinks`` is forwarded to the
        service (a sequence of :class:`repro.obs.AlarmSink`; the caller
        owns their lifecycle -- ``spec.service.alarm_log`` is applied by
        the CLI, not here, so library callers stay in charge of file
        handles).  The service is returned un-started -- ``await
        service.start()`` (or use it as an async context manager) from the
        hosting event loop.  ``repro serve`` wraps it in the wire server.
        """
        from ..serve import AnomalyService

        if config is None:
            config = self.service_config(record_sessions=record_sessions)
        adaptation = None if self.spec.adaptation is None \
            else self.spec.adaptation.policy()
        fingerprint = None
        if self.artifact_dir is not None:
            from ..serialize import artifact_fingerprint

            fingerprint = artifact_fingerprint(self.artifact_dir)
        return AnomalyService(self.serving_detector, config=config,
                              adaptation=adaptation,
                              alarm_sinks=alarm_sinks,
                              fingerprint=fingerprint)

    def record_baseline(self, traffic: Any, *, write: bool = True):
        """Capture this packaged artifact's golden baseline from ``traffic``.

        Replays representative streams (``(T, channels)`` or a sequence of
        them) through the real serving path and writes the per-artifact
        score/latency/alarm statistics as a ``baseline.json`` sidecar next
        to the packaged artifact (``write=False`` skips the write).  The
        baseline is what canary evaluation later compares live shadow
        statistics against; see :mod:`repro.lifecycle`.  Requires a
        :meth:`load`-ed pipeline -- the baseline is a property of the
        packaged artifact, fingerprint and all.
        """
        if self.artifact_dir is None:
            raise PipelineStageError(
                "record_baseline needs a packaged artifact: package() and "
                "Pipeline.load() the artifact directory first")
        from ..lifecycle import record_baseline

        return record_baseline(self.artifact_dir, traffic, write=write)

    def deploy_canary(self, artifact: Union[str, Path], *,
                      fraction: Optional[float] = None,
                      gates: Optional[Any] = None):
        """Build a canary controller for the candidate packaged at ``artifact``.

        The candidate detector and its golden baseline sidecar (see
        :meth:`record_baseline`) load from ``artifact``;
        ``spec.service.lifecycle`` supplies the shadow fraction and gate
        limits unless overridden here.  Attach the returned
        :class:`repro.lifecycle.CanaryController` to a *running* service
        with :meth:`repro.serve.AnomalyService.attach_canary`, then
        ``await service.promote()`` once the gates have enough samples.
        """
        from ..lifecycle import CanaryController, load_baseline
        from ..serialize import artifact_fingerprint

        lifecycle_spec = None if self.spec.service is None \
            else self.spec.service.lifecycle
        if fraction is None:
            fraction = 0.25 if lifecycle_spec is None \
                else lifecycle_spec.fraction
        if gates is None and lifecycle_spec is not None:
            gates = lifecycle_spec.gates()
        candidate = load_detector(artifact)
        baseline = load_baseline(artifact)
        return CanaryController(candidate, baseline=baseline, gates=gates,
                                fraction=fraction,
                                fingerprint=artifact_fingerprint(artifact))

    def deploy_cluster(self, artifact: Union[str, Path], *,
                       tenants: Optional[Dict[str, Union[str, Path]]] = None,
                       workers: Optional[int] = None,
                       host: str = "127.0.0.1",
                       run_dir: Optional[Path] = None):
        """Build a sharded serving cluster for a *packaged* artifact.

        Returns an **unstarted** :class:`repro.cluster.ClusterHarness`
        fronting ``workers`` worker subprocesses (each a full serving
        stack loading the artifact at ``artifact``) behind one
        consistent-hash shard router; use it as a context manager (or
        call ``start()``/``stop()``).  ``tenants`` maps extra tenant
        names to their artifact directories for multi-tenant serving
        (``artifact`` stays the default tenant).  ``spec.service.cluster``
        supplies the fleet shape (worker count, ring granularity, crash
        policy); ``workers`` overrides its count.  Clients connect to
        ``harness.port`` with the unchanged single-server protocol --
        scores and alarms are bit-identical to
        :meth:`deploy_service` for any worker count
        (``tests/test_cluster/test_cluster_parity.py``).
        """
        from ..cluster import ClusterHarness, WorkerConfig

        service_spec = self.spec.service
        cluster_spec = None if service_spec is None else service_spec.cluster
        if workers is None:
            workers = 2 if cluster_spec is None else cluster_spec.workers
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        router_config = None if cluster_spec is None \
            else cluster_spec.router_config()
        transport = "tcp" if cluster_spec is None \
            else cluster_spec.worker_transport
        artifacts: Dict[str, Path] = {"default": Path(artifact)}
        for tenant, path in (tenants or {}).items():
            artifacts[tenant] = Path(path)
        overrides = {}
        if service_spec is not None and not service_spec.incremental:
            overrides["incremental"] = False
        configs = [
            WorkerConfig(name=f"worker-{index}", artifacts=dict(artifacts),
                         default_tenant="default", transport=transport,
                         host=host, service=overrides)
            for index in range(workers)
        ]
        return ClusterHarness(configs, router_config=router_config,
                              host=host, run_dir=run_dir)

    def edge_estimates(self) -> Dict[str, Any]:
        """Analytical edge-board metrics for ``spec.runtime.devices``."""
        from ..edge.device import get_device
        from ..edge.estimator import EdgeEstimator

        detector = self.serving_detector
        cost = detector.inference_cost()
        estimates: Dict[str, Any] = {}
        for device_name in self.spec.runtime.devices:
            estimator = EdgeEstimator(get_device(device_name))
            estimates[estimator.device.name] = estimator.estimate(
                cost, detector.name, max_rate_hz=self.spec.runtime.sample_rate_hz)
        return estimates

    # ------------------------------------------------------------------ #
    # One-shot
    # ------------------------------------------------------------------ #
    def run(self, dataset: Optional[Any] = None) -> PipelineReport:
        """Run ``fit -> calibrate -> quantize`` end to end and evaluate.

        ``dataset`` is anything with ``train`` / ``test`` / ``test_labels``
        attributes (:class:`~repro.data.BenchmarkDataset`,
        :class:`~repro.data.SyntheticAnomalyDataset`), a bare ``(T,
        channels)`` training array, or ``None`` to build the dataset the
        spec's ``data`` entry describes.  Returns a :class:`PipelineReport`
        with the calibrated threshold and (when the dataset carries a
        labelled test split) the accuracy of the float and, if quantized,
        int8 serving paths.
        """
        if dataset is None:
            if self.spec.data is None:
                raise PipelineStageError(
                    "run() without a dataset needs a data entry in the spec"
                )
            dataset = self.spec.data.build(self.spec.seed)

        if isinstance(dataset, np.ndarray) or not hasattr(dataset, "train"):
            train = np.asarray(dataset, dtype=np.float64)
            test = labels = None
        else:
            train = np.asarray(dataset.train, dtype=np.float64)
            test = getattr(dataset, "test", None)
            labels = getattr(dataset, "test_labels", None)

        start = time.perf_counter()
        self.fit(train)
        train_time = time.perf_counter() - start
        self.calibrate()
        if self.spec.quantization is not None:
            self.quantize()

        float_report = self._evaluate(self.detector, test, labels)
        quantized_report = None
        if self._quantized is not None:
            quantized_report = self._evaluate(self._quantized, test, labels)
        threshold = self.detector.threshold
        assert threshold is not None  # calibrate() always attaches one
        return PipelineReport(
            spec=self.spec,
            threshold=threshold,
            train_time_s=train_time,
            float_report=float_report,
            quantized_report=quantized_report,
        )

    def evaluate(self, test: Optional[np.ndarray] = None,
                 labels: Optional[np.ndarray] = None) -> DetectorReport:
        """Score the serving detector on ``test``, with AUC/AP/F1 when
        ``labels`` are given (the same evaluation :meth:`run` reports)."""
        return self._evaluate(self.serving_detector, test, labels)

    def _evaluate(self, detector: AnomalyDetector, test: Optional[np.ndarray],
                  labels: Optional[np.ndarray]) -> DetectorReport:
        """Score the test split (falling back to the training stream)."""
        from ..eval.metrics import (average_precision_score, best_f1_score,
                                    roc_auc_score)

        if test is None:
            if self._train_data is None:
                raise PipelineStageError(
                    "no data to evaluate on: pass a test array, or fit() "
                    "this pipeline first so the training stream is available"
                )
            if detector is self._detector and self._train_scores is not None:
                result = self._train_scores
            else:
                result = detector.score_stream(self._train_data)
            return DetectorReport(name=detector.name, auc_roc=None,
                                  average_precision=None, best_f1=None,
                                  samples_scored=int(result.valid_mask.sum()),
                                  score_result=result)
        test = np.asarray(test, dtype=np.float64)
        result = detector.score_stream(test)
        auc = ap = f1 = None
        if labels is not None:
            scores, aligned_labels = result.aligned(np.asarray(labels))
            auc = float(roc_auc_score(scores, aligned_labels))
            ap = float(average_precision_score(scores, aligned_labels))
            f1 = float(best_f1_score(scores, aligned_labels)[0])
        return DetectorReport(name=detector.name, auc_roc=auc,
                              average_precision=ap, best_f1=f1,
                              samples_scored=int(result.valid_mask.sum()),
                              score_result=result)


# Module-function spelling of the one-shot entry point, exported alongside
# the class (repro.pipeline.__all__); convenient for functional call sites.
def run_pipeline(spec: DeploymentSpec,
                 dataset: Optional[Any] = None) -> PipelineReport:
    """Thin shim: ``Pipeline.from_spec(spec).run(dataset)``."""
    return Pipeline.from_spec(spec).run(dataset)
