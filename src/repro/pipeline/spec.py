"""Declarative deployment specification for the VARADE pipeline.

A :class:`DeploymentSpec` is the single, versionable description of an edge
deployment: which detector to train (and with which hyper-parameters), what
data to train it on, how to calibrate the alarm threshold, whether to
quantize to int8, whether to adapt the threshold online under drift, and how
the runtime replays streams.  The spec round-trips to/from JSON
(:meth:`DeploymentSpec.to_json` / :meth:`DeploymentSpec.from_json`) with
strict unknown-key rejection, so a packaged artifact can embed the exact
spec that produced it and a spec file checked into a repo reproduces the
same artifact bit-for-bit (modulo wall-clock timing; see
:func:`repro.serialize.artifact_fingerprint`).

``DeploymentSpec.seed`` is the master seed: it is injected into the detector
config, the training config and the data builder wherever those do not pin
their own seed explicitly, so one integer determines every stochastic stage
of the pipeline.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Type,
                    TypeVar, Union)

__all__ = [
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
]

_T = TypeVar("_T")


class SpecError(ValueError):
    """Raised when a deployment spec cannot be parsed or validated."""


def _require_mapping(value: Any, context: str) -> None:
    if not isinstance(value, Mapping):
        raise SpecError(
            f"{context} must be a mapping of keyword arguments, "
            f"got {type(value).__name__}"
        )


# --------------------------------------------------------------------------- #
# Sub-specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DetectorSpec:
    """Which detector to build, and with which configuration.

    ``kind`` is a :data:`repro.pipeline.DETECTORS` registry key
    (``"varade"``, ``"knn"``, ...).  ``params`` are the keyword arguments of
    that kind's config dataclass (``VaradeConfig``, ``KNNConfig``, ...);
    ``training`` are the :class:`~repro.core.config.TrainingConfig` kwargs
    for kinds that take a separate training config (VARADE).  Unknown keys
    inside ``params``/``training`` are rejected by the config dataclasses
    themselves at build time.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    training: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("detector.kind must be a non-empty registry key")
        _require_mapping(self.params, "detector.params")
        if self.training is not None:
            _require_mapping(self.training, "detector.training")


@dataclass(frozen=True)
class DataSpec:
    """Which dataset builder feeds the pipeline's ``fit``/``calibrate`` run.

    ``source`` selects the builder: ``"synthetic"`` for
    :func:`repro.data.build_synthetic_anomaly_dataset` (cheap, no robot
    simulation) or ``"benchmark"`` for
    :func:`repro.data.build_benchmark_dataset` (the paper's robot-cell
    protocol, ``params`` = :class:`~repro.data.DatasetConfig` kwargs).
    """

    source: str = "synthetic"
    params: Dict[str, Any] = field(default_factory=dict)

    _SOURCES = ("synthetic", "benchmark")

    def __post_init__(self) -> None:
        if self.source not in self._SOURCES:
            raise SpecError(
                f"data.source must be one of {self._SOURCES}, got {self.source!r}"
            )
        _require_mapping(self.params, "data.params")

    def build(self, seed: int) -> Any:
        """Build the dataset, defaulting its seed to the deployment seed.

        A typo'd or out-of-range builder kwarg surfaces as :class:`SpecError`
        so callers (the CLI in particular) report it cleanly; the error
        wrapping is kept narrow so genuine bugs inside the heavyweight
        benchmark simulation still surface as themselves, not as a spec
        problem.
        """
        params = dict(self.params)
        params.setdefault("seed", seed)
        if self.source == "synthetic":
            from ..data.dataset import build_synthetic_anomaly_dataset

            try:
                return build_synthetic_anomaly_dataset(**params)
            except (TypeError, ValueError) as error:
                # The synthetic generator is a thin numpy sampler: kwarg
                # binding and range failures here trace back to params.
                raise SpecError(
                    f"invalid data.params for source 'synthetic': {error}"
                ) from error
        from ..data.dataset import DatasetConfig, build_benchmark_dataset

        try:
            config = DatasetConfig(**params)
        except (TypeError, ValueError) as error:
            raise SpecError(
                f"invalid data.params for source 'benchmark': {error}"
            ) from error
        return build_benchmark_dataset(config)


@dataclass(frozen=True)
class CalibrationSpec:
    """Threshold calibration rule applied to the normal-score distribution."""

    method: str = "quantile"
    quantile: float = 0.99
    mad_factor: float = 6.0

    def __post_init__(self) -> None:
        if self.method not in ("quantile", "mad"):
            raise SpecError(f"calibration.method must be 'quantile' or 'mad', "
                            f"got {self.method!r}")
        # Mirror ThresholdCalibrator's checks so a bad spec fails at parse
        # time, not after a full training run.
        if not 0.0 < self.quantile < 1.0:
            raise SpecError(f"calibration.quantile must be in (0, 1), "
                            f"got {self.quantile!r}")
        if self.mad_factor <= 0:
            raise SpecError(f"calibration.mad_factor must be positive, "
                            f"got {self.mad_factor!r}")

    def calibrator(self) -> "ThresholdCalibrator":
        from ..core.calibration import ThresholdCalibrator

        return ThresholdCalibrator(method=self.method, quantile=self.quantile,
                                   mad_factor=self.mad_factor)


@dataclass(frozen=True)
class QuantizationSpec:
    """Int8 post-training quantization settings (presence enables the stage)."""

    headroom: float = 2.0

    def __post_init__(self) -> None:
        if self.headroom < 1.0:
            raise SpecError("quantization.headroom must be at least 1.0")


@dataclass(frozen=True)
class AdaptationSpec:
    """Online drift-adaptation policy settings (presence enables the stage).

    ``detector`` selects the score-stream change detector
    (``"page_hinkley"`` or ``"two_window"``) with ``detector_params`` as its
    constructor kwargs; the remaining fields mirror
    :class:`~repro.drift.AdaptationPolicy`.
    """

    detector: str = "page_hinkley"
    detector_params: Dict[str, Any] = field(default_factory=dict)
    reservoir_size: int = 1024
    min_reservoir: int = 100
    confirm_samples: int = 96
    confirm_iqr: float = 2.0
    trim_iqr: float = 4.0
    cooldown: int = 400
    reservoir_guard: Optional[float] = 2.5
    refresh_scaler: bool = False

    _DETECTORS = ("page_hinkley", "two_window")

    def __post_init__(self) -> None:
        if self.detector not in self._DETECTORS:
            raise SpecError(
                f"adaptation.detector must be one of {self._DETECTORS}, "
                f"got {self.detector!r}"
            )
        _require_mapping(self.detector_params, "adaptation.detector_params")
        # Constructing (and discarding) the drift detector runs its own
        # kwarg/range validation, so a bad detector_params fails at parse
        # time rather than mid-deployment.
        self._build_drift_detector()
        # Mirror AdaptationPolicy's checks so a bad spec fails at parse
        # time, not mid-deployment.
        if self.reservoir_size < 32:
            raise SpecError("adaptation.reservoir_size must be at least 32")
        if not 1 <= self.min_reservoir <= self.reservoir_size:
            raise SpecError("adaptation.min_reservoir must be in "
                            "[1, reservoir_size]")
        if self.confirm_samples < 8:
            raise SpecError("adaptation.confirm_samples must be at least 8")
        if self.confirm_iqr <= 0 or self.trim_iqr <= 0:
            raise SpecError("adaptation.confirm_iqr and adaptation.trim_iqr "
                            "must be positive")
        if self.cooldown < 0:
            raise SpecError("adaptation.cooldown must be non-negative")
        if self.reservoir_guard is not None and self.reservoir_guard <= 1.0:
            raise SpecError("adaptation.reservoir_guard must exceed 1 "
                            "(or be null)")

    def _build_drift_detector(self) -> "DriftDetector":
        from ..drift.detectors import PageHinkley, TwoWindowDrift

        detector_cls = PageHinkley if self.detector == "page_hinkley" \
            else TwoWindowDrift
        try:
            return detector_cls(**self.detector_params)
        except (TypeError, ValueError) as error:
            raise SpecError(
                f"invalid adaptation.detector_params for "
                f"{self.detector!r}: {error}"
            ) from error

    def policy(self) -> "AdaptationPolicy":
        from ..drift.policy import AdaptationPolicy

        return AdaptationPolicy(
            drift_detector=self._build_drift_detector(),
            reservoir_size=self.reservoir_size,
            min_reservoir=self.min_reservoir,
            confirm_samples=self.confirm_samples,
            confirm_iqr=self.confirm_iqr,
            trim_iqr=self.trim_iqr,
            cooldown=self.cooldown,
            reservoir_guard=self.reservoir_guard,
            refresh_scaler=self.refresh_scaler,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Sharded-serving settings (``service.cluster`` sub-entry).

    Presence turns ``repro serve`` / :meth:`Pipeline.deploy_cluster` into
    a multi-worker deployment: ``workers`` subprocesses each running the
    full serving stack, fronted by the :class:`repro.cluster.ShardRouter`
    consistent-hash shard router.  ``virtual_nodes`` sets the hash-ring
    granularity per worker; ``worker_transport`` picks how the router
    reaches workers (``"uds"`` keeps intra-host traffic off TCP);
    ``restart`` respawns crashed workers (their streams resume after a
    window re-fill); ``health_interval_s`` paces crash probes and fleet
    metrics refresh; ``recover_timeout_s`` bounds each crash-recovery
    stall.  See the "Cluster topology" section of ``docs/ARCHITECTURE.md``.
    """

    workers: int = 2
    virtual_nodes: int = 64
    worker_transport: str = "tcp"
    restart: bool = True
    health_interval_s: float = 2.0
    recover_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 1:
            raise SpecError("cluster.workers must be a positive integer")
        if not isinstance(self.virtual_nodes, int) \
                or isinstance(self.virtual_nodes, bool) \
                or self.virtual_nodes < 1:
            raise SpecError("cluster.virtual_nodes must be a positive integer")
        if self.worker_transport not in ("tcp", "uds"):
            raise SpecError(
                f"cluster.worker_transport must be 'tcp' or 'uds', "
                f"got {self.worker_transport!r}")
        for name in ("health_interval_s", "recover_timeout_s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value <= 0:
                raise SpecError(f"cluster.{name} must be a positive number")

    def router_config(self) -> "Any":
        """Build the runtime :class:`repro.cluster.RouterConfig`."""
        from ..cluster import RouterConfig

        return RouterConfig(virtual_nodes=self.virtual_nodes,
                            health_interval_s=self.health_interval_s,
                            restart=self.restart,
                            recover_timeout_s=self.recover_timeout_s)


@dataclass(frozen=True)
class LifecycleSpec:
    """Model-lifecycle settings (``service.lifecycle`` sub-entry).

    Tunes the canary/promotion control plane (:mod:`repro.lifecycle`):
    ``fraction`` is the share of live streams a canary shadow-scores;
    the gate knobs mirror :class:`repro.lifecycle.CanaryGates` (samples
    required before judging, score-distribution shift ceiling,
    alarm-rate ratio vs the golden baseline, shadow-latency p99 budget);
    the ``watch_*`` knobs mirror :class:`repro.lifecycle.WatchPolicy`
    for the post-promotion meta-watcher (``watch: false`` disables it).
    Validation is delegated to the runtime classes -- one source of
    truth, surfaced as :class:`SpecError` at parse time.
    """

    fraction: float = 0.25
    min_samples: int = 256
    max_score_shift: float = 0.35
    max_alarm_ratio: float = 3.0
    alarm_rate_slack: float = 0.005
    max_latency_p99_s: float = 0.025
    watch: bool = True
    watch_interval_s: float = 1.0
    watch_alpha: float = 0.2
    watch_k: float = 6.0
    watch_warmup_ticks: int = 5
    watch_patience: int = 3
    watch_max_alarm_rate: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.fraction, (int, float)) \
                or isinstance(self.fraction, bool) \
                or not 0.0 < self.fraction <= 1.0:
            raise SpecError("lifecycle.fraction must be a number in (0, 1]")
        if not isinstance(self.watch, bool):
            raise SpecError("lifecycle.watch must be a boolean")
        try:
            self.gates()
            self.watch_policy()
        except (TypeError, ValueError) as error:
            raise SpecError(f"invalid lifecycle entry: {error}") from error

    def gates(self) -> "Any":
        """Build the runtime :class:`repro.lifecycle.CanaryGates`."""
        from ..lifecycle import CanaryGates

        return CanaryGates(
            min_samples=self.min_samples,
            max_score_shift=self.max_score_shift,
            max_alarm_ratio=self.max_alarm_ratio,
            alarm_rate_slack=self.alarm_rate_slack,
            max_latency_p99_s=self.max_latency_p99_s)

    def watch_policy(self) -> "Any":
        """Build the runtime :class:`repro.lifecycle.WatchPolicy`."""
        from ..lifecycle import WatchPolicy

        return WatchPolicy(
            interval_s=self.watch_interval_s,
            alpha=self.watch_alpha,
            k=self.watch_k,
            warmup_ticks=self.watch_warmup_ticks,
            patience=self.watch_patience,
            max_alarm_rate=self.watch_max_alarm_rate)


@dataclass(frozen=True)
class ServiceSpec:
    """Serving-API settings (presence enables ``Pipeline.deploy_service``).

    Mirrors :class:`repro.serve.ServiceConfig` -- micro-batcher sizing
    (``max_batch`` windows per flush, ``max_delay_ms`` latency budget),
    per-session queue bound (``max_queue``) with its ``backpressure``
    policy, and the wire endpoint the ``repro serve`` CLI listens on:
    ``transport`` picks TCP (``host``/``port``; port ``0`` binds an
    ephemeral port) or a Unix-domain socket (``"uds"`` + ``uds_path``)
    for co-located producers.  ``protocol`` restricts what connections
    may speak -- ``"auto"`` (default) negotiates JSON vs binary from each
    connection's first byte, ``"json"``/``"binary"`` accept only that
    protocol.  ``apply_scaler`` makes sessions normalise raw pushed
    samples with the artifact's training scaler.  ``incremental``
    (default on) lets sessions score each sample with the detector's
    O(1)-per-sample incremental scorer where the model supports it --
    bit-identical scores, lower hot-path latency; detectors without an
    incremental path ignore it.

    Observability (see :mod:`repro.obs` and ``docs/OPERATIONS.md``):
    ``observability`` turns on the metrics registry and trace recorder;
    ``trace_events`` bounds the trace ring (``0`` = metrics only);
    ``metrics_port`` additionally serves ``GET /metrics`` (Prometheus
    text format) and ``GET /trace`` on a plain-HTTP scrape port --
    setting it implies ``observability``, port ``0`` binds ephemerally;
    ``alarm_log`` appends every alarm as one JSON line to that file.
    """

    max_batch: int = 32
    max_delay_ms: float = 5.0
    max_queue: int = 256
    backpressure: str = "block"
    apply_scaler: bool = False
    incremental: bool = True
    host: str = "127.0.0.1"
    port: int = 7007
    transport: str = "tcp"
    protocol: str = "auto"
    uds_path: Optional[str] = None
    observability: bool = False
    trace_events: int = 4096
    metrics_port: Optional[int] = None
    alarm_log: Optional[str] = None
    #: sharded multi-worker serving (``repro serve --workers`` /
    #: ``Pipeline.deploy_cluster``); absent = single-process serving
    cluster: Optional[ClusterSpec] = None
    #: canary/promotion tuning (``repro canary`` / ``Pipeline.deploy_canary``);
    #: absent = library defaults
    lifecycle: Optional[LifecycleSpec] = None

    def __post_init__(self) -> None:
        # A spec file carries the cluster entry as a plain mapping;
        # normalise it to a ClusterSpec (strict keys, like every sub-spec).
        if self.cluster is not None and not isinstance(self.cluster,
                                                       ClusterSpec):
            object.__setattr__(
                self, "cluster",
                _from_mapping(ClusterSpec, self.cluster, "service.cluster"))
        if self.lifecycle is not None and not isinstance(self.lifecycle,
                                                         LifecycleSpec):
            object.__setattr__(
                self, "lifecycle",
                _from_mapping(LifecycleSpec, self.lifecycle,
                              "service.lifecycle"))
        # Run ServiceConfig's own validation (one source of truth for the
        # batcher knobs) so a bad spec fails at parse time, not when the
        # service starts; ValueErrors are re-raised as SpecErrors with the
        # spec-section prefix.
        try:
            self.config()
        except (TypeError, ValueError) as error:
            raise SpecError(f"invalid service entry: {error}") from error
        if not isinstance(self.max_batch, int) \
                or not isinstance(self.max_queue, int):
            raise SpecError("service.max_batch and service.max_queue must "
                            "be integers")
        if not isinstance(self.host, str) or not self.host:
            raise SpecError("service.host must be a non-empty string")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not 0 <= self.port <= 65535:
            raise SpecError("service.port must be an integer in [0, 65535]")
        if self.transport not in ("tcp", "uds"):
            raise SpecError(
                f"service.transport must be 'tcp' or 'uds', "
                f"got {self.transport!r}"
            )
        if self.protocol not in ("auto", "json", "binary"):
            raise SpecError(
                f"service.protocol must be 'auto', 'json' or 'binary', "
                f"got {self.protocol!r}"
            )
        if self.uds_path is not None and \
                (not isinstance(self.uds_path, str) or not self.uds_path):
            raise SpecError(
                "service.uds_path must be a non-empty string (or null)")
        if self.transport == "uds" and self.uds_path is None:
            raise SpecError(
                "service.transport 'uds' needs a service.uds_path")
        if not isinstance(self.trace_events, int) \
                or isinstance(self.trace_events, bool):
            raise SpecError("service.trace_events must be an integer")
        if self.metrics_port is not None and (
                not isinstance(self.metrics_port, int)
                or isinstance(self.metrics_port, bool)
                or not 0 <= self.metrics_port <= 65535):
            raise SpecError("service.metrics_port must be an integer in "
                            "[0, 65535] (or null)")
        if self.alarm_log is not None and \
                (not isinstance(self.alarm_log, str) or not self.alarm_log):
            raise SpecError(
                "service.alarm_log must be a non-empty string (or null)")

    def config(self, **overrides: Any) -> "ServiceConfig":
        """Build the runtime :class:`repro.serve.ServiceConfig`."""
        from ..serve import ServiceConfig

        kwargs: Dict[str, Any] = {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
            "max_queue": self.max_queue,
            "backpressure": self.backpressure,
            "apply_scaler": self.apply_scaler,
            "incremental": self.incremental,
            # A scrape port is only useful with a registry behind it.
            "observability": self.observability or self.metrics_port is not None,
            "trace_events": self.trace_events,
        }
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)


@dataclass(frozen=True)
class RuntimeSpec:
    """Streaming/fleet replay settings and optional edge-board estimates."""

    sample_rate_hz: float = 50.0
    max_samples: Optional[int] = None
    #: edge boards (``repro.edge.DEVICES`` names) to estimate metrics for.
    devices: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise SpecError("runtime.sample_rate_hz must be positive")
        if self.max_samples is not None and self.max_samples < 1:
            raise SpecError("runtime.max_samples must be at least 1 (or null)")
        # A bare string would iterate per character; require a real sequence
        # of names.  JSON round-trips tuples as lists; normalise for
        # spec equality.
        if isinstance(self.devices, str) or \
                not all(isinstance(d, str) for d in self.devices):
            raise SpecError("runtime.devices must be a list of edge device "
                            "names (e.g. [\"Jetson AGX Orin\"])")
        object.__setattr__(self, "devices", tuple(self.devices))
        if self.devices:
            from ..edge import DEVICES

            unknown = [d for d in self.devices if d not in DEVICES]
            if unknown:
                raise SpecError(f"unknown runtime.devices {unknown}; "
                                f"known devices: {sorted(DEVICES)}")


# --------------------------------------------------------------------------- #
# Strict nested parsing
# --------------------------------------------------------------------------- #
def _from_mapping(cls: Type[_T], mapping: Mapping[str, Any], context: str) -> _T:
    """Build a spec dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(mapping, Mapping):
        raise SpecError(f"{context} must be a mapping, got {type(mapping).__name__}")
    known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise SpecError(
            f"unknown key(s) {unknown} in {context}; known keys: {sorted(known)}"
        )
    try:
        return cls(**dict(mapping))
    except TypeError as error:
        raise SpecError(f"invalid {context}: {error}") from error


def _optional(cls: Type[_T], entry: Optional[Mapping[str, Any]],
              context: str) -> Optional[_T]:
    return None if entry is None else _from_mapping(cls, entry, context)


# --------------------------------------------------------------------------- #
# The deployment spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeploymentSpec:
    """One declarative description of an end-to-end edge deployment.

    The spec covers every stage of :class:`repro.pipeline.Pipeline`:
    detector choice + hyper-parameters (``detector``), the training dataset
    (``data``, optional when datasets are passed in explicitly), the
    threshold calibration rule (``calibration``), optional int8 quantization
    (``quantization``), optional online drift adaptation (``adaptation``),
    optional serving-API settings (``service``, consumed by
    ``Pipeline.deploy_service`` and ``repro serve``), stream-replay/fleet
    settings (``runtime``) and the master ``seed``.
    """

    detector: DetectorSpec
    data: Optional[DataSpec] = None
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    quantization: Optional[QuantizationSpec] = None
    adaptation: Optional[AdaptationSpec] = None
    service: Optional[ServiceSpec] = None
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    seed: int = 0

    #: nested sub-spec fields: (field name, spec class, nullable).  The one
    #: table :meth:`from_dict` parses through, so adding a sub-spec means
    #: adding a dataclass field plus one row here.
    _NESTED_SPECS = (
        ("data", DataSpec, True),
        ("calibration", CalibrationSpec, False),
        ("quantization", QuantizationSpec, True),
        ("adaptation", AdaptationSpec, True),
        ("service", ServiceSpec, True),
        ("runtime", RuntimeSpec, False),
    )

    # -- JSON round-trip ------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (tuples become lists, canonically)."""
        def convert(value: Any) -> Any:
            if isinstance(value, (tuple, list)):
                return [convert(item) for item in value]
            if isinstance(value, dict):
                return {key: convert(item) for key, item in value.items()}
            return value

        return convert(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "DeploymentSpec":
        """Parse a spec mapping, rejecting unknown keys at every level."""
        if not isinstance(mapping, Mapping):
            raise SpecError(
                f"deployment spec must be a mapping, got {type(mapping).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise SpecError(
                f"unknown key(s) {unknown} in deployment spec; "
                f"known keys: {sorted(known)}"
            )
        if "detector" not in mapping:
            raise SpecError("deployment spec needs a 'detector' entry")
        kwargs: Dict[str, Any] = {
            "detector": _from_mapping(DetectorSpec, mapping["detector"], "detector"),
        }
        for name, spec_cls, optional in cls._NESTED_SPECS:
            if name in mapping:
                parse = _optional if optional else _from_mapping
                kwargs[name] = parse(spec_cls, mapping[name], name)
        if "seed" in mapping:
            seed = mapping["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise SpecError(f"seed must be an integer, got {seed!r}")
            kwargs["seed"] = seed
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"deployment spec is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    # -- file helpers ---------------------------------------------------- #
    def save(self, path: Union[str, "Path"]) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, "Path"]) -> "DeploymentSpec":
        from pathlib import Path

        return cls.from_json(Path(path).read_text(encoding="utf-8"))


if TYPE_CHECKING:  # pragma: no cover - hints for type checkers only
    from pathlib import Path

    from ..core.calibration import ThresholdCalibrator
    from ..drift.detectors import DriftDetector
    from ..drift.policy import AdaptationPolicy
    from ..serve import ServiceConfig
