"""Golden-score fixture: seeded stream + frozen per-detector scores.

This module is the single source of truth for the golden regression suite
(``tests/test_serialize/test_golden_scores.py``): it defines the seeded
synthetic stream, the exact (tiny) configuration of every detector in the
study, and the scoring protocol.  The committed fixture
``tests/golden/golden_scores.npz`` holds the expected outputs; the test
retrains the detectors from this module and fails on any unintended numeric
drift in data generation, training, scoring or calibration.

Regenerate the fixture after an *intentional* numeric change with::

    PYTHONPATH=src python tests/golden/golden_harness.py --write

and commit the refreshed ``golden_scores.npz`` together with the change that
motivated it (the diff review is the audit trail for score changes).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.pipeline import DeploymentSpec, DetectorSpec, Pipeline

FIXTURE_PATH = Path(__file__).parent / "golden_scores.npz"

N_CHANNELS = 5
TRAIN_SAMPLES = 360
TEST_SAMPLES = 240
STREAM_SEED = 2026

#: detectors covered by the golden suite, in fixed order.
DETECTOR_NAMES = ("VARADE", "AR-LSTM", "GBRF", "AE", "kNN", "Isolation Forest")


def generate_stream() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (train, test, test_labels) streams.

    The train half is clean quasi-periodic data; the test half carries three
    labelled additive bursts.  Everything is a pure function of
    ``STREAM_SEED`` (numpy guarantees Generator bit-stream stability), and
    the generated arrays are additionally frozen inside the fixture so a
    drifting generator is caught independently of drifting detectors.

    Deliberately self-contained: this must NOT delegate to
    :func:`repro.data.build_synthetic_anomaly_dataset` or any other library
    helper, because the golden fixture has to stay put when the library's
    generators evolve.
    """
    rng = np.random.default_rng(STREAM_SEED)
    total = TRAIN_SAMPLES + TEST_SAMPLES
    t = np.arange(total) / 40.0
    channels = []
    for channel in range(N_CHANNELS):
        base = np.sin(2.0 * np.pi * (0.5 + 0.11 * channel) * t + 0.8 * channel)
        base += 0.3 * np.cos(2.0 * np.pi * (1.3 + 0.05 * channel) * t)
        base += 0.04 * rng.normal(size=total)
        channels.append(base)
    stream = np.stack(channels, axis=1)

    train = stream[:TRAIN_SAMPLES]
    test = stream[TRAIN_SAMPLES:].copy()
    labels = np.zeros(TEST_SAMPLES, dtype=np.int64)
    for start in (60, 130, 200):
        stop = start + 10
        test[start:stop, :3] += np.array([2.0, -2.0, 1.5])
        labels[start:stop] = 1
    return train, test, labels


#: the exact golden configuration of every detector: registry kind, config
#: kwargs and (VARADE only) training kwargs.
GOLDEN_DETECTORS = {
    "VARADE": DetectorSpec(
        "varade",
        dict(n_channels=N_CHANNELS, window=16, base_feature_maps=8),
        training=dict(learning_rate=3e-3, epochs=3, mean_warmup_epochs=1,
                      variance_finetune_epochs=2, batch_size=32,
                      max_train_windows=200)),
    "AR-LSTM": DetectorSpec(
        "ar_lstm", dict(n_channels=N_CHANNELS, window=8, hidden_size=8,
                        num_layers=1, fc_size=16, epochs=1,
                        max_train_windows=100)),
    "GBRF": DetectorSpec(
        "gbrf", dict(n_channels=N_CHANNELS, window=16, n_estimators=10,
                     max_depth=2, context_samples=3, max_train_windows=150)),
    "AE": DetectorSpec(
        "autoencoder", dict(n_channels=N_CHANNELS, window=16,
                            base_feature_maps=8, n_blocks=2,
                            latent_feature_maps=12, epochs=1,
                            max_train_windows=120)),
    "kNN": DetectorSpec(
        "knn", dict(n_channels=N_CHANNELS, n_neighbors=5,
                    max_reference_points=300)),
    "Isolation Forest": DetectorSpec(
        "isolation_forest", dict(n_channels=N_CHANNELS, n_estimators=25,
                                 max_samples=64)),
}


def build_detectors() -> Dict[str, object]:
    """Fresh, unfitted detectors in the exact golden configuration, built
    through the declarative pipeline (seed 0 everywhere)."""
    return {
        name: Pipeline.from_spec(
            DeploymentSpec(detector=detector, seed=0)).build_detector()
        for name, detector in GOLDEN_DETECTORS.items()
    }


def fit_and_calibrate(train: np.ndarray) -> Dict[str, object]:
    """Train every golden detector and attach its quantile threshold."""
    detectors = build_detectors()
    for detector in detectors.values():
        detector.fit(train)
        detector.calibrate_threshold(train, quantile=0.98)
    return detectors


def score_all(detectors: Dict[str, object], test: np.ndarray) -> Dict[str, np.ndarray]:
    """Full-stream scores per detector (NaN prefix included)."""
    return {name: detector.score_stream(test).scores
            for name, detector in detectors.items()}


def build_fixture_payload() -> Dict[str, np.ndarray]:
    """Everything the fixture freezes, keyed the way the npz stores it."""
    train, test, labels = generate_stream()
    detectors = fit_and_calibrate(train)
    payload: Dict[str, np.ndarray] = {
        "stream.train": train,
        "stream.test": test,
        "stream.labels": labels,
    }
    for name, scores in score_all(detectors, test).items():
        payload[f"scores.{name}"] = scores
        payload[f"threshold.{name}"] = np.asarray([detectors[name].threshold.threshold])
    return payload


def load_fixture() -> Dict[str, np.ndarray]:
    with np.load(FIXTURE_PATH, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="regenerate and overwrite the committed fixture")
    args = parser.parse_args()
    payload = build_fixture_payload()
    if args.write:
        np.savez(FIXTURE_PATH, **payload)
        print(f"wrote {FIXTURE_PATH} with {len(payload)} arrays")
    else:
        frozen = load_fixture()
        for key, value in payload.items():
            match = np.allclose(frozen[key], value, rtol=1e-6, atol=1e-9, equal_nan=True)
            print(f"{key:30s} {'OK' if match else 'DRIFT'}")


if __name__ == "__main__":
    main()
