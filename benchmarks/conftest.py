"""Shared fixtures for the benchmark suite.

The benchmarks regenerate the paper's tables and figures.  Training all six
detectors takes a couple of minutes in pure numpy, so the full experiment is
run once per session and shared by every table/figure benchmark.

Environment knobs:

* ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the recording
  durations, letting a longer run get closer to the paper's statistics.
"""

import os

import numpy as np
import pytest

from repro.data import DatasetConfig, build_benchmark_dataset
from repro.eval import ExperimentConfig, run_full_experiment
from repro.pipeline import DeploymentSpec, DetectorSpec, Pipeline


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running benchmark, deselect with -m 'not slow'"
    )


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


@pytest.fixture(scope="session")
def benchmark_dataset():
    scale = _scale()
    config = DatasetConfig(
        train_duration_s=90.0 * scale,
        test_duration_s=60.0 * scale,
        n_collisions=max(int(20 * scale), 5),
        sample_rate=50.0,
        num_actions=30,
        seed=0,
    )
    return build_benchmark_dataset(config)


@pytest.fixture(scope="session")
def experiment_result(benchmark_dataset):
    """The full Table-2 / Figure-3 experiment, shared across benchmarks."""
    config = ExperimentConfig(
        window=32,
        neural_epochs=4,
        max_train_windows=600,
        varade_feature_maps=16,
        sensor_rate_hz=200.0,
        seed=0,
    )
    return run_full_experiment(config, dataset=benchmark_dataset)


# --------------------------------------------------------------------------- #
# Fleet-throughput benchmark fixtures (bench_fleet_throughput.py)
# --------------------------------------------------------------------------- #
FLEET_CHANNELS = 6


def _fleet_stream(n_samples: int, seed: int) -> np.ndarray:
    """Synthetic multi-channel stream with enough structure to train on."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 50.0
    channels = [
        np.sin(2 * np.pi * (0.4 + 0.15 * c) * t + 0.7 * c)
        + 0.05 * rng.normal(size=n_samples)
        for c in range(FLEET_CHANNELS)
    ]
    return np.stack(channels, axis=1)


@pytest.fixture(scope="session")
def fleet_stream_factory():
    """Factory of reproducible synthetic streams for the fleet benchmarks."""
    return _fleet_stream


@pytest.fixture(scope="session")
def fleet_pipeline(fleet_stream_factory):
    """A small trained VARADE deployment shared by the fleet benchmarks."""
    spec = DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": FLEET_CHANNELS, "window": 32,
                    "base_feature_maps": 8},
            training={"learning_rate": 3e-3, "epochs": 3, "mean_warmup_epochs": 1,
                      "variance_finetune_epochs": 2, "max_train_windows": 300},
        ),
        seed=0,
    )
    return Pipeline.from_spec(spec).fit(fleet_stream_factory(500, seed=0))


@pytest.fixture(scope="session")
def fleet_varade(fleet_pipeline):
    """The fleet deployment's fitted VARADE detector."""
    return fleet_pipeline.detector
