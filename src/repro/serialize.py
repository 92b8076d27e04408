"""Versioned save/load of fitted detectors (npz weights + JSON manifest).

A saved detector is a directory holding exactly two files:

* ``manifest.json`` -- format version, detector class, architecture /
  training configuration, loss history, the calibrated decision threshold
  and the fitted input scaler's hyper-parameters;
* ``arrays.npz`` -- every numeric blob of the fitted state (network
  parameters, tree node tables, kNN reference sets, int8 codes and scales,
  scaler statistics), stored uncompressed so float64 values round-trip
  bit-for-bit.

:func:`save_detector` / :func:`load_detector` cover VARADE, all five
baselines and the int8-quantized VARADE.  The contract, enforced by
``tests/test_serialize/test_round_trip.py``, is that a reloaded detector
reproduces :meth:`~repro.core.detector.AnomalyDetector.score_windows_batch`
bit-identically -- including the NaN alignment of
:meth:`~repro.core.detector.AnomalyDetector.score_stream` and the
classification of the calibrated threshold -- which is what makes the
directory a deployable edge artifact rather than a checkpoint.

Typical deployment flow (see the README for the full walkthrough)::

    detector.fit(train)
    detector.calibrate_threshold(train)
    save_detector(detector, "artifacts/varade")
    quantized = detector.quantize(train)
    save_detector(quantized, "artifacts/varade-int8")
    ...
    served = load_detector("artifacts/varade-int8")   # on the edge device
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from . import __version__
from .baselines.ar_lstm import ARLSTMConfig, ARLSTMDetector
from .baselines.autoencoder import AutoencoderConfig, AutoencoderDetector
from .baselines.gbrf import GBRFConfig, GBRFDetector
from .baselines.isolation_forest import IsolationForestConfig, IsolationForestDetector
from .baselines.knn import KNNConfig, KNNDetector
from .core.calibration import CalibratedThreshold
from .core.config import TrainingConfig, VaradeConfig
from .core.detector import AnomalyDetector, TrainingHistory, VaradeDetector
from .core.quantized import QuantizedVaradeDetector
from .data.normalization import MinMaxScaler, StandardScaler
from .nn.quant import QuantizedConv1d, QuantizedForwardPlan, QuantizedLinear

__all__ = [
    "FORMAT_VERSION",
    "SerializationError",
    "ArtifactNotFoundError",
    "UnsupportedFormatError",
    "UnknownDetectorError",
    "save_detector",
    "load_detector",
    "read_manifest",
    "artifact_fingerprint",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

Arrays = Dict[str, np.ndarray]


class SerializationError(RuntimeError):
    """Raised when a detector cannot be saved or a saved artifact is invalid."""


class ArtifactNotFoundError(SerializationError):
    """``path`` is not a saved-detector directory (manifest or arrays missing)."""


class UnsupportedFormatError(SerializationError):
    """The artifact's manifest declares a format version this build cannot read."""


class UnknownDetectorError(SerializationError):
    """The manifest names a detector class/kind no registry entry covers."""


# --------------------------------------------------------------------------- #
# Neural detectors: config dataclass + Module.state_dict()
# --------------------------------------------------------------------------- #
def _extract_network(detector) -> Arrays:
    return {f"network.{name}": value
            for name, value in detector.network.state_dict().items()}


def _restore_network(detector, arrays: Arrays) -> None:
    state = {name[len("network."):]: value for name, value in arrays.items()
             if name.startswith("network.")}
    detector.network.load_state_dict(state)


def _extract_varade(detector: VaradeDetector) -> Tuple[dict, Arrays]:
    return ({"config": asdict(detector.config), "training": asdict(detector.training)},
            _extract_network(detector))


def _restore_varade(manifest: dict, arrays: Arrays) -> VaradeDetector:
    detector = VaradeDetector(VaradeConfig(**manifest["config"]),
                              TrainingConfig(**manifest["training"]))
    _restore_network(detector, arrays)
    return detector


def _extract_ar_lstm(detector: ARLSTMDetector) -> Tuple[dict, Arrays]:
    return {"config": asdict(detector.config)}, _extract_network(detector)


def _restore_ar_lstm(manifest: dict, arrays: Arrays) -> ARLSTMDetector:
    detector = ARLSTMDetector(ARLSTMConfig(**manifest["config"]))
    _restore_network(detector, arrays)
    return detector


def _extract_autoencoder(detector: AutoencoderDetector) -> Tuple[dict, Arrays]:
    return {"config": asdict(detector.config)}, _extract_network(detector)


def _restore_autoencoder(manifest: dict, arrays: Arrays) -> AutoencoderDetector:
    detector = AutoencoderDetector(AutoencoderConfig(**manifest["config"]))
    _restore_network(detector, arrays)
    return detector


# --------------------------------------------------------------------------- #
# Tree / neighbour detectors: node tables and reference sets
# --------------------------------------------------------------------------- #
@contextmanager
def _malformed_nodes(name: str) -> Iterator[None]:
    """Turn a tree model's refusal of its node table into a SerializationError."""
    try:
        yield
    except ValueError as error:
        raise SerializationError(f"{name} artifact has a malformed node table: {error}") \
            from error


def _extract_gbrf(detector: GBRFDetector) -> Tuple[dict, Arrays]:
    arrays = {f"model.{name}": value
              for name, value in detector.model.to_arrays().items()}
    return {"config": asdict(detector.config)}, arrays


def _restore_gbrf(manifest: dict, arrays: Arrays) -> GBRFDetector:
    detector = GBRFDetector(GBRFConfig(**manifest["config"]))
    model_arrays = {name[len("model."):]: value for name, value in arrays.items()
                    if name.startswith("model.")}
    n_features = detector._tap_indices.shape[0] * detector.config.n_channels
    with _malformed_nodes("GBRF"):
        detector.model.load_arrays(model_arrays, n_features)
    return detector


def _extract_isolation_forest(detector: IsolationForestDetector) -> Tuple[dict, Arrays]:
    arrays = {f"forest.{name}": value
              for name, value in detector.forest.to_arrays().items()}
    return {"config": asdict(detector.config)}, arrays


def _restore_isolation_forest(manifest: dict, arrays: Arrays) -> IsolationForestDetector:
    detector = IsolationForestDetector(IsolationForestConfig(**manifest["config"]))
    forest_arrays = {name[len("forest."):]: value for name, value in arrays.items()
                     if name.startswith("forest.")}
    with _malformed_nodes("Isolation Forest"):
        detector.forest.load_arrays(forest_arrays, detector.config.n_channels)
    return detector


def _extract_knn(detector: KNNDetector) -> Tuple[dict, Arrays]:
    if detector.scorer.reference_ is None:
        raise SerializationError("kNN detector has no fitted reference set")
    return {"config": asdict(detector.config)}, {"reference": detector.scorer.reference_}


def _restore_knn(manifest: dict, arrays: Arrays) -> KNNDetector:
    detector = KNNDetector(KNNConfig(**manifest["config"]))
    reference = np.asarray(arrays["reference"], dtype=np.float64)
    detector.scorer.reference_ = reference
    detector.scorer._reference_sq_norms = (reference ** 2).sum(axis=1)
    return detector


# --------------------------------------------------------------------------- #
# Quantized VARADE: int8 codes + scales + plan topology
# --------------------------------------------------------------------------- #
def _extract_quantized_varade(detector: QuantizedVaradeDetector) -> Tuple[dict, Arrays]:
    plan = detector.plan
    arrays: Arrays = {}
    conv_meta = []
    for index, conv in enumerate(plan.conv_layers):
        prefix = f"conv{index}."
        arrays[prefix + "weight_q"] = conv.weight_q
        arrays[prefix + "weight_scale"] = conv.weight_scale
        arrays[prefix + "act_scale"] = np.asarray([conv.act_scale])
        if conv.bias is not None:
            arrays[prefix + "bias"] = conv.bias
        conv_meta.append({"stride": conv.stride, "padding": conv.padding,
                          "has_bias": conv.bias is not None})
    for name, head in plan.heads.items():
        prefix = f"head.{name}."
        arrays[prefix + "weight_q"] = head.weight_q
        arrays[prefix + "weight_scale"] = head.weight_scale
        arrays[prefix + "act_scale"] = np.asarray([head.act_scale])
        if head.bias is not None:
            arrays[prefix + "bias"] = head.bias
    manifest = {
        "config": asdict(detector.config),
        "plan": {
            "steps": plan.steps,
            "convs": conv_meta,
            "heads": sorted(plan.heads),
        },
    }
    return manifest, arrays


def _restore_quantized_varade(manifest: dict, arrays: Arrays) -> QuantizedVaradeDetector:
    config = VaradeConfig(**manifest["config"])
    plan_meta = manifest["plan"]
    convs = []
    for index, meta in enumerate(plan_meta["convs"]):
        prefix = f"conv{index}."
        convs.append(QuantizedConv1d(
            arrays[prefix + "weight_q"],
            arrays[prefix + "weight_scale"],
            arrays.get(prefix + "bias") if meta["has_bias"] else None,
            stride=meta["stride"],
            padding=meta["padding"],
            act_scale=float(np.asarray(arrays[prefix + "act_scale"])[0]),
        ))
    heads = {}
    for name in plan_meta["heads"]:
        prefix = f"head.{name}."
        heads[name] = QuantizedLinear(
            arrays[prefix + "weight_q"],
            arrays[prefix + "weight_scale"],
            arrays.get(prefix + "bias"),
            act_scale=float(np.asarray(arrays[prefix + "act_scale"])[0]),
        )
    plan = QuantizedForwardPlan(convs, heads, in_channels=config.n_channels,
                                in_length=config.window, steps=plan_meta["steps"])
    return QuantizedVaradeDetector(config, plan)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_HANDLERS: Dict[str, Tuple[Callable, Callable]] = {
    "VaradeDetector": (_extract_varade, _restore_varade),
    "ARLSTMDetector": (_extract_ar_lstm, _restore_ar_lstm),
    "AutoencoderDetector": (_extract_autoencoder, _restore_autoencoder),
    "GBRFDetector": (_extract_gbrf, _restore_gbrf),
    "IsolationForestDetector": (_extract_isolation_forest, _restore_isolation_forest),
    "KNNDetector": (_extract_knn, _restore_knn),
    "QuantizedVaradeDetector": (_extract_quantized_varade, _restore_quantized_varade),
}


# --------------------------------------------------------------------------- #
# Shared deployment state: threshold + scaler
# --------------------------------------------------------------------------- #
def _threshold_to_manifest(threshold: Optional[CalibratedThreshold]) -> Optional[dict]:
    if threshold is None:
        return None
    return {"threshold": threshold.threshold, "method": threshold.method,
            "parameter": threshold.parameter}


def _threshold_from_manifest(entry: Optional[dict]) -> Optional[CalibratedThreshold]:
    if entry is None:
        return None
    return CalibratedThreshold(threshold=float(entry["threshold"]),
                               method=str(entry["method"]),
                               parameter=float(entry["parameter"]))


def _scaler_to_state(scaler) -> Tuple[Optional[dict], Arrays]:
    if scaler is None:
        return None, {}
    if isinstance(scaler, MinMaxScaler):
        if scaler.data_min_ is None:
            raise SerializationError("attached MinMaxScaler has not been fitted")
        return ({"class": "MinMaxScaler", "low": scaler.low, "high": scaler.high},
                {"scaler.data_min": scaler.data_min_, "scaler.data_max": scaler.data_max_})
    if isinstance(scaler, StandardScaler):
        if scaler.mean_ is None:
            raise SerializationError("attached StandardScaler has not been fitted")
        return ({"class": "StandardScaler", "eps": scaler.eps},
                {"scaler.mean": scaler.mean_, "scaler.std": scaler.std_})
    raise SerializationError(
        f"cannot serialize scaler of type {type(scaler).__name__}; "
        "use MinMaxScaler or StandardScaler"
    )


def _scaler_from_state(entry: Optional[dict], arrays: Arrays):
    if entry is None:
        return None
    if entry["class"] == "MinMaxScaler":
        scaler = MinMaxScaler(feature_range=(float(entry["low"]), float(entry["high"])))
        scaler.data_min_ = np.asarray(arrays["scaler.data_min"], dtype=np.float64)
        scaler.data_max_ = np.asarray(arrays["scaler.data_max"], dtype=np.float64)
        return scaler
    if entry["class"] == "StandardScaler":
        scaler = StandardScaler(eps=float(entry["eps"]))
        scaler.mean_ = np.asarray(arrays["scaler.mean"], dtype=np.float64)
        scaler.std_ = np.asarray(arrays["scaler.std"], dtype=np.float64)
        return scaler
    raise SerializationError(f"unknown scaler class {entry['class']!r}")


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def save_detector(detector: AnomalyDetector, path, *, overwrite: bool = False,
                  extra_manifest: Optional[dict] = None) -> Path:
    """Save a fitted detector (weights + config + threshold + scaler) to ``path``.

    ``path`` becomes a directory holding ``manifest.json`` and ``arrays.npz``.
    Returns the directory path.  Refuses to overwrite an existing artifact
    unless ``overwrite=True``, and refuses to save unfitted detectors (a
    saved artifact is a deployable unit, not a checkpoint).

    ``extra_manifest`` entries are merged into the manifest verbatim (e.g.
    the ``deployment_spec`` a :class:`repro.pipeline.Pipeline` packages with
    its artifact); they may not shadow the reserved manifest keys.
    """
    class_name = type(detector).__name__
    handler = _HANDLERS.get(class_name)
    if handler is None:
        raise UnknownDetectorError(
            f"no serializer registered for {class_name}; known classes: "
            f"{sorted(_HANDLERS)}"
        )
    if not detector._fitted:
        raise SerializationError(f"{detector.name}: cannot save an unfitted detector")

    extract, _ = handler
    manifest_body, arrays = extract(detector)
    scaler_entry, scaler_arrays = _scaler_to_state(detector.scaler)
    arrays = dict(arrays)
    arrays.update(scaler_arrays)

    manifest = {
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "detector_class": class_name,
        "name": detector.name,
        "window": detector.window,
        "history": {
            "epoch_losses": [float(v) for v in detector.history.epoch_losses],
            "wall_time_s": float(detector.history.wall_time_s),
        },
        "threshold": _threshold_to_manifest(detector.threshold),
        "scaler": scaler_entry,
        "arrays": sorted(arrays),
    }
    manifest.update(manifest_body)
    if extra_manifest:
        clashes = sorted(set(extra_manifest) & set(manifest))
        if clashes:
            raise SerializationError(
                f"extra_manifest entries would shadow reserved manifest "
                f"keys: {clashes}"
            )
        manifest.update(extra_manifest)

    target = Path(path)
    if target.exists():
        if not overwrite:
            raise SerializationError(
                f"{target} already exists; pass overwrite=True to replace it"
            )
        if not target.is_dir():
            raise SerializationError(f"{target} exists and is not a directory")
    target.mkdir(parents=True, exist_ok=True)
    with open(target / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    # Uncompressed npz: exact bits, fast load on the device.
    np.savez(target / ARRAYS_NAME, **arrays)
    return target


def read_manifest(path) -> dict:
    """Read and version-check an artifact's ``manifest.json``.

    Raises :class:`ArtifactNotFoundError` when ``path`` is not a
    saved-detector directory (distinguishing the missing file in the
    message) and :class:`UnsupportedFormatError` when the manifest declares
    a format version this build cannot read.
    """
    source = Path(path)
    manifest_path = source / MANIFEST_NAME
    arrays_path = source / ARRAYS_NAME
    if not manifest_path.is_file():
        raise ArtifactNotFoundError(
            f"{source} is not a saved detector: {MANIFEST_NAME} is missing "
            f"(expected a directory produced by save_detector)"
        )
    if not arrays_path.is_file():
        raise ArtifactNotFoundError(
            f"{source} is not a complete saved detector: {ARRAYS_NAME} is "
            f"missing next to {MANIFEST_NAME}"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"{manifest_path} is not valid JSON: {error}"
            ) from error

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedFormatError(
            f"unsupported format version {version!r} in {manifest_path} "
            f"(this build reads version {FORMAT_VERSION}); re-save the "
            f"detector with this version of repro"
        )
    return manifest


def load_detector(path, *, manifest: Optional[dict] = None) -> AnomalyDetector:
    """Load a detector saved by :func:`save_detector`.

    The returned detector is fitted, carries the saved threshold / scaler /
    history, and reproduces the saved detector's ``score_windows_batch``
    bit-identically.  Callers that already hold the artifact's manifest
    (from :func:`read_manifest`) can pass it to skip re-reading the file.

    Error paths are distinct: :class:`ArtifactNotFoundError` for a missing
    or incomplete artifact directory, :class:`UnsupportedFormatError` for an
    unknown manifest format version and :class:`UnknownDetectorError` for a
    detector class no registry entry covers -- all subclasses of
    :class:`SerializationError`, so existing ``except`` sites keep working.
    """
    source = Path(path)
    if manifest is None:
        manifest = read_manifest(source)
    arrays_path = source / ARRAYS_NAME

    class_name = manifest.get("detector_class")
    handler = _HANDLERS.get(class_name)
    if handler is None:
        raise UnknownDetectorError(
            f"unknown detector class {class_name!r} in manifest; this build "
            f"can restore: {sorted(_HANDLERS)}"
        )

    with np.load(arrays_path, allow_pickle=False) as payload:
        arrays = {name: payload[name] for name in payload.files}
    missing = set(manifest.get("arrays", [])) - set(arrays)
    if missing:
        raise SerializationError(f"arrays file is missing blobs: {sorted(missing)}")

    _, restore = handler
    detector = restore(manifest, arrays)
    detector.history = TrainingHistory(
        epoch_losses=[float(v) for v in manifest["history"]["epoch_losses"]],
        wall_time_s=float(manifest["history"]["wall_time_s"]),
    )
    detector.threshold = _threshold_from_manifest(manifest.get("threshold"))
    detector.scaler = _scaler_from_state(manifest.get("scaler"), arrays)
    detector._mark_fitted()
    return detector


def artifact_fingerprint(path) -> str:
    """Deterministic sha256 fingerprint of a saved artifact's content.

    Hashes the manifest (minus the wall-clock training time, the one field
    that legitimately differs between two otherwise identical training runs)
    plus every array's name, dtype, shape and exact bytes.  Two pipeline
    runs from the same :class:`repro.pipeline.DeploymentSpec` produce the
    same fingerprint -- the determinism contract enforced by
    ``tests/test_pipeline/test_determinism.py``.  The npz file itself is not
    hashed directly because zip archives embed timestamps.
    """
    import hashlib

    source = Path(path)
    manifest = read_manifest(source)
    manifest.get("history", {}).pop("wall_time_s", None)
    digest = hashlib.sha256()
    digest.update(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    with np.load(source / ARRAYS_NAME, allow_pickle=False) as payload:
        for name in sorted(payload.files):
            array = payload[name]
            digest.update(name.encode("utf-8"))
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
