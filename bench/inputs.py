"""Seeded inputs and the one bench model every workload shares.

The program under test receives only what this module generates: float32
sample streams (``--seed`` drives phases, noise, anomaly placement and the
interleave) and one artifact set built through :class:`repro.pipeline.Pipeline`
from a *fixed* spec, so every seed scores against the same weights and the
same threshold and only the traffic changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

N_CHANNELS = 86          #: the paper's robot cell (VaradeConfig default)
WINDOW = 64
FEATURE_MAPS = 16
N_STREAMS = 16
#: seeds of the fixed training / calibration slices (never a --seed value:
#: stream seeds are offset by STREAM_SEED_BASE below)
TRAIN_SEED = 11
CALIBRATION_SEED = 12
STREAM_SEED_BASE = 1000
#: calibration quantile: ~5 % of held-out scores sit above the threshold,
#: the middle of the 2-10 % band the oracle enforces
CALIBRATION_QUANTILE = 0.95
ALARM_RATE_BAND = (0.02, 0.10)

TRAINING = {"epochs": 2, "mean_warmup_epochs": 1,
            "variance_finetune_epochs": 2, "learning_rate": 3e-3,
            "max_train_windows": 200}
#: the tier-1 schema test only needs *a* model, not this one's accuracy
QUICK_TRAINING = {"epochs": 1, "mean_warmup_epochs": 0,
                  "variance_finetune_epochs": 1, "learning_rate": 3e-3,
                  "max_train_windows": 32}

# One "robot cell": channel frequencies and amplitudes are a property of the
# plant, fixed across seeds, so a model trained on TRAIN_SEED sees the same
# dynamics on every --seed and the alarm rate stays inside the band.
_PLANT = np.random.default_rng(7)
_FREQ = _PLANT.uniform(0.01, 0.08, size=N_CHANNELS)
_AMP = _PLANT.uniform(0.5, 1.5, size=N_CHANNELS)


class StreamSource:
    """A seeded ``(n, 86)`` float32 sample source: sinusoids + noise + bursts.

    ``take(n)`` continues where the previous call stopped, so a long stream
    can be produced chunk by chunk without holding it all in memory.
    Anomalies are seeded noise bursts (about 3 % of samples, 20-60 samples
    long, 4x the noise floor) -- enough variance structure that a few per
    cent of samples alarm without any one stream alarming constantly.
    """

    def __init__(self, seed: int, anomalies: bool = True) -> None:
        self._rng = np.random.default_rng(seed)
        self._phase = self._rng.uniform(0.0, 2.0 * np.pi, size=N_CHANNELS)
        self._anomalies = anomalies
        self._cursor = 0

    def take(self, n_samples: int) -> np.ndarray:
        rng = self._rng
        t = np.arange(self._cursor, self._cursor + n_samples,
                      dtype=np.float64)[:, None]
        self._cursor += n_samples
        noise = rng.normal(scale=0.1, size=(n_samples, N_CHANNELS))
        if self._anomalies:
            n_bursts = int(rng.poisson(0.03 * n_samples / 40))
            for start in rng.integers(0, n_samples, size=n_bursts):
                noise[start:start + int(rng.integers(20, 61))] *= 4.0
        signal = _AMP * np.sin(2.0 * np.pi * _FREQ * t + self._phase) + noise
        return signal.astype(np.float32)


def make_stream(seed: int, n_samples: int, anomalies: bool = True) -> np.ndarray:
    return StreamSource(seed, anomalies).take(n_samples)


def stream_seed(seed: int, index: int) -> int:
    """The generator seed of stream ``index`` under ``--seed seed``."""
    return STREAM_SEED_BASE + seed * 64 + index


def make_streams(seed: int, n_streams: int, n_samples: int) -> List[np.ndarray]:
    """``n_streams`` independent streams for one ``--seed``."""
    return [make_stream(stream_seed(seed, index), n_samples)
            for index in range(n_streams)]


def stream_ids(n_streams: int = N_STREAMS) -> List[str]:
    """Fixed ids, so hash placement (and shard skew) repeats exactly."""
    return [f"s{index:02d}" for index in range(n_streams)]


def burst_schedule(seed: int, n_streams: int, n_samples: int,
                   block: int) -> List[Tuple[int, int, int]]:
    """Seeded bursty interleave: ``(stream, start, stop)`` blocks.

    A stream is picked at random and sends a burst of 1-4 consecutive
    blocks before another takes over; per-stream order is preserved.
    """
    rng = np.random.default_rng(stream_seed(seed, 63))
    cursors = [0] * n_streams
    live = list(range(n_streams))
    schedule: List[Tuple[int, int, int]] = []
    while live:
        stream = live[int(rng.integers(len(live)))]
        for _ in range(int(rng.integers(1, 5))):
            start = cursors[stream]
            stop = min(start + block, n_samples)
            schedule.append((stream, start, stop))
            cursors[stream] = stop
            if stop == n_samples:
                live.remove(stream)
                break
    return schedule


# --------------------------------------------------------------------------- #
# The bench model
# --------------------------------------------------------------------------- #
@dataclass
class Artifacts:
    """One built artifact set plus how long each pipeline stage took."""

    float_workdir: Path      #: ``repro serve --workdir`` for the float model
    int8_workdir: Path       #: ... and for its int8 twin
    stage_s: Dict[str, float]

    def workdir(self, precision: str) -> Path:
        return self.float_workdir if precision == "float" else self.int8_workdir

    def package(self, precision: str) -> Path:
        return self.workdir(precision) / "package"


def bench_spec(window: int = WINDOW, feature_maps: int = FEATURE_MAPS,
               training: Dict[str, float] = TRAINING):
    from repro.pipeline import (CalibrationSpec, DeploymentSpec, DetectorSpec,
                                QuantizationSpec)

    return DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": N_CHANNELS, "window": window,
                    "base_feature_maps": feature_maps},
            training=dict(training)),
        calibration=CalibrationSpec(method="quantile",
                                    quantile=CALIBRATION_QUANTILE),
        quantization=QuantizationSpec(),
        seed=0)


def fit_calibrated(spec):
    """``Pipeline`` fitted on the fixed training slice and calibrated on the
    fixed held-out slice; returns ``(pipeline, training stream)``."""
    from repro.pipeline import Pipeline

    train = make_stream(TRAIN_SEED, 600, anomalies=False)
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(train)
    pipeline.calibrate(make_stream(CALIBRATION_SEED, 1500))
    return pipeline, np.asarray(train, dtype=np.float64)


def build_artifacts(out_dir: Path, quick: bool = False) -> Artifacts:
    """Build and package the float artifact and its int8 twin under ``out_dir``.

    ``Pipeline.package`` ships the int8 detector once one exists, so the
    float package is written before ``quantize()`` runs.
    """
    stage_s: Dict[str, float] = {}
    start = time.perf_counter()
    pipeline, train = fit_calibrated(
        bench_spec(training=QUICK_TRAINING if quick else TRAINING))
    stage_s["fit_s"] = time.perf_counter() - start

    float_workdir = out_dir / "float"
    int8_workdir = out_dir / "int8"
    start = time.perf_counter()
    pipeline.package(float_workdir / "package", overwrite=True)
    package_s = time.perf_counter() - start
    start = time.perf_counter()
    pipeline.quantize(train)
    stage_s["quantize_s"] = time.perf_counter() - start
    start = time.perf_counter()
    pipeline.package(int8_workdir / "package", overwrite=True)
    stage_s["package_s"] = package_s + time.perf_counter() - start
    return Artifacts(float_workdir, int8_workdir, stage_s)


def load_serving_detector(package_dir: Path):
    """The detector exactly as ``repro serve`` restores it."""
    from repro.pipeline import Pipeline

    return Pipeline.load(package_dir).serving_detector
