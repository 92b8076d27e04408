"""String-keyed detector registry behind the deployment pipeline.

Every detector kind of the study registers itself here under a stable string
key (``"varade"``, ``"ar_lstm"``, ``"autoencoder"``, ``"gbrf"``, ``"knn"``,
``"isolation_forest"``, plus the inference-only ``"varade_int8"``).  The
registry is what lets a :class:`~repro.pipeline.spec.DeploymentSpec` name its
detector declaratively -- the spec carries ``kind`` + plain config kwargs,
and :meth:`DetectorRegistry.build` turns them into a constructed detector --
and what lets a packaged artifact be mapped back to the spec kind that
produced it (:meth:`DetectorRegistry.kind_for`).

Registration is decorator based; the builders for the built-in kinds live in
:mod:`repro.pipeline.builders` and run when :mod:`repro.pipeline` is
imported.  Third-party detectors can register additional kinds the same
way::

    from repro.pipeline import DETECTORS

    @DETECTORS.register("my_detector", config_cls=MyConfig,
                        detector_cls=MyDetector)
    def _build_my_detector(params, training):
        return MyDetector(MyConfig(**params))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Type

from ..core.detector import AnomalyDetector
from ..serialize import UnknownDetectorError
from .spec import SpecError

__all__ = ["DetectorBuilder", "RegisteredDetector", "DetectorRegistry", "DETECTORS"]

#: signature of a registered builder: ``(config_params, training_params) ->
#: detector``.  ``training_params`` is ``None`` for detectors whose config
#: carries its own training settings.
DetectorBuilder = Callable[[Dict[str, Any], Optional[Dict[str, Any]]], AnomalyDetector]


@dataclass(frozen=True)
class RegisteredDetector:
    """One registry entry: how to build and identify a detector kind."""

    kind: str
    display_name: str
    config_cls: Type[Any]
    detector_cls: Type[AnomalyDetector]
    builder: DetectorBuilder
    #: whether :meth:`DetectorRegistry.build` can construct this kind from a
    #: spec alone.  Inference-only artifacts (the int8 VARADE) are produced
    #: by a pipeline stage from a fitted float detector instead.
    trainable: bool = True
    #: whether the kind accepts a separate training-config mapping
    #: (VARADE's :class:`~repro.core.config.TrainingConfig`).
    accepts_training: bool = False

    def build(self, params: Mapping[str, Any],
              training: Optional[Mapping[str, Any]] = None) -> AnomalyDetector:
        if not self.trainable:
            raise UnknownDetectorError(
                f"detector kind {self.kind!r} is inference-only and cannot be "
                "built from a spec; build and fit its float counterpart, then "
                "run the pipeline's quantize stage"
            )
        if training is not None and not self.accepts_training:
            raise SpecError(
                f"detector kind {self.kind!r} does not take a separate "
                "training config; fold the settings into detector.params"
            )
        try:
            return self.builder(dict(params),
                                dict(training) if training is not None else None)
        except (TypeError, ValueError) as error:
            # A typo'd hyperparameter or out-of-range value surfaces here as
            # the config dataclass's TypeError/ValueError; re-raise as a spec
            # problem so callers (the CLI in particular) report it cleanly.
            raise SpecError(
                f"invalid detector params for kind {self.kind!r}: {error}"
            ) from error


class DetectorRegistry:
    """Decorator-based, string-keyed registry of detector kinds.

    Most code should use the process-wide :data:`DETECTORS` instance rather
    than constructing its own registry.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredDetector] = {}

    # -- registration ---------------------------------------------------- #
    def register(self, kind: str, *, display_name: Optional[str] = None,
                 config_cls: Type[Any], detector_cls: Type[AnomalyDetector],
                 trainable: bool = True,
                 accepts_training: bool = False) -> Callable[[DetectorBuilder], DetectorBuilder]:
        """Decorator registering ``builder`` under ``kind``.

        The decorated function keeps working as a plain callable; the
        registry stores it alongside the config/detector classes so specs
        can be validated and loaded artifacts mapped back to their kind.
        """
        if not kind or not kind.replace("_", "").isalnum() or kind != kind.lower():
            raise ValueError(
                f"detector kind {kind!r} must be a non-empty lower_snake_case key"
            )

        def decorator(builder: DetectorBuilder) -> DetectorBuilder:
            if kind in self._entries:
                raise ValueError(f"detector kind {kind!r} is already registered")
            self._entries[kind] = RegisteredDetector(
                kind=kind,
                display_name=display_name if display_name is not None else kind,
                config_cls=config_cls,
                detector_cls=detector_cls,
                builder=builder,
                trainable=trainable,
                accepts_training=accepts_training,
            )
            return builder

        return decorator

    # -- lookup ---------------------------------------------------------- #
    def kinds(self) -> List[str]:
        """Registered kind keys, sorted."""
        return sorted(self._entries)

    def __contains__(self, kind: str) -> bool:
        return kind in self._entries

    def get(self, kind: str) -> RegisteredDetector:
        entry = self._entries.get(kind)
        if entry is None:
            raise UnknownDetectorError(
                f"unknown detector kind {kind!r}; registered kinds: {self.kinds()}"
            )
        return entry

    def build(self, kind: str, params: Mapping[str, Any],
              training: Optional[Mapping[str, Any]] = None) -> AnomalyDetector:
        """Construct an (unfitted) detector of ``kind`` from plain kwargs."""
        return self.get(kind).build(params, training)

    def kind_for(self, detector: AnomalyDetector) -> str:
        """Reverse lookup: the kind key of a detector instance's class."""
        for entry in self._entries.values():
            if type(detector) is entry.detector_cls:
                return entry.kind
        raise UnknownDetectorError(
            f"no registered detector kind for class {type(detector).__name__!r}; "
            f"registered kinds: {self.kinds()}"
        )

    def kind_for_display_name(self, name: str) -> str:
        """Map a display name (``"VARADE"``, ``"kNN"``...) to its kind."""
        for entry in self._entries.values():
            if entry.display_name == name:
                return entry.kind
        raise UnknownDetectorError(
            f"no registered detector kind with display name {name!r}; known "
            f"names: {sorted(e.display_name for e in self._entries.values())}"
        )


#: the process-wide registry the pipeline, CLI and serialization bridge use.
DETECTORS: DetectorRegistry = DetectorRegistry()
