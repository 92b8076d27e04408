"""Experiment Q1 -- int8 post-training quantization: throughput and drift.

Measures what the edge deployment subsystem buys and what it costs:

* **Throughput** -- batched ``score_windows_batch`` wall-clock of a
  float VARADE (the :class:`repro.nn.FastForwardPlan` float64 kernel)
  versus its int8 drop-in (the :class:`repro.nn.QuantizedForwardPlan`
  kernel; both sit under the one streaming driver, which this batched
  experiment does not exercise) at equal batch sizes.  Acceptance: >= 1.5x
  at the largest batch.
* **Accuracy** -- AUC-ROC of float vs int8 on the labelled synthetic anomaly
  benchmark (:func:`repro.data.build_synthetic_anomaly_dataset`), plus the
  in-distribution score drift.  Acceptance: AUC within 2 points.
* **Edge estimates** -- the analytical Jetson metrics for the float and int8
  cost profiles side by side.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_quantized_inference.py -q -s
"""

import time

import numpy as np
import pytest

from repro.core import VaradeConfig, VaradeDetector
from repro.data import build_synthetic_anomaly_dataset
from repro.data.windowing import sliding_windows
from repro.edge import DEVICES, EdgeEstimator
from repro.eval import roc_auc_score
from repro.pipeline import (DeploymentSpec, DetectorSpec, Pipeline,
                            QuantizationSpec)

BATCH_SIZES = (64, 256, 512)
TIMING_REPEATS = 30
REQUIRED_SPEEDUP = 1.5
AUC_TOLERANCE = 0.02


def _best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _training_stream(n_samples, n_channels, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 50.0
    return np.stack([
        np.sin(2 * np.pi * (0.4 + 0.1 * c) * t + c) + 0.05 * rng.normal(size=n_samples)
        for c in range(n_channels)
    ], axis=1)


@pytest.fixture(scope="module")
def throughput_detectors():
    """A GEMM-dominated VARADE (8 channels, window 64, 32+ feature maps).

    The weights only need to be realistic enough for representative
    activation ranges, so training is minimal.
    """
    n_channels, window = 8, 64
    stream = _training_stream(1200, n_channels)
    spec = DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": n_channels, "window": window,
                    "base_feature_maps": 48},
            training={"learning_rate": 3e-3, "epochs": 1, "mean_warmup_epochs": 1,
                      "variance_finetune_epochs": 1, "max_train_windows": 100},
        ),
        quantization=QuantizationSpec(),
        seed=0,
    )
    pipeline = Pipeline.from_spec(spec).fit(stream).quantize()
    return pipeline.detector, pipeline.quantized, stream


def test_quantized_batched_throughput(benchmark, throughput_detectors):
    detector, quantized, stream = throughput_detectors
    window = detector.window
    windows_all = sliding_windows(stream, window, stride=1)
    rows = []
    speedups = {}
    for batch in BATCH_SIZES:
        windows = np.ascontiguousarray(windows_all[:batch])
        targets = stream[window - 1:window - 1 + batch]
        # Warm both plans' buffers before timing.
        float_scores = detector.score_windows_batch(windows, targets)
        int8_scores = quantized.score_windows_batch(windows, targets)
        float_s = _best_of(TIMING_REPEATS,
                           lambda: detector.score_windows_batch(windows, targets))
        int8_s = _best_of(TIMING_REPEATS,
                          lambda: quantized.score_windows_batch(windows, targets))
        drift = float(np.max(np.abs(int8_scores - float_scores)
                             / np.abs(float_scores)))
        speedups[batch] = float_s / int8_s
        rows.append((batch, batch / float_s, batch / int8_s, float_s / int8_s, drift))

    print()
    print(f"quantized inference -- VARADE {detector.config.n_channels} channels, "
          f"window {detector.window}, "
          f"{detector.network.num_parameters():,} parameters "
          f"({detector.inference_cost().parameter_bytes / 1e3:.0f} KB float, "
          f"{quantized.inference_cost().parameter_bytes / 1e3:.0f} KB int8)")
    print(f"{'batch':>6} {'float sps':>12} {'int8 sps':>12} {'speedup':>8} "
          f"{'max drift':>10}")
    for batch, float_sps, int8_sps, speedup, drift in rows:
        print(f"{batch:>6} {float_sps:>12.0f} {int8_sps:>12.0f} {speedup:>7.2f}x "
              f"{drift:>10.4f}")

    # Record the int8 engine at the acceptance operating point.
    windows = np.ascontiguousarray(windows_all[:BATCH_SIZES[-1]])
    targets = stream[window - 1:window - 1 + BATCH_SIZES[-1]]
    benchmark(lambda: quantized.score_windows_batch(windows, targets))

    top_batch = BATCH_SIZES[-1]
    assert speedups[top_batch] >= REQUIRED_SPEEDUP, (
        f"int8 speedup at batch {top_batch} is only {speedups[top_batch]:.2f}x "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def test_quantized_accuracy_on_synthetic_benchmark():
    """Int8 AUC within 2 points of float on the labelled synthetic benchmark."""
    dataset = build_synthetic_anomaly_dataset(n_channels=5, seed=7)
    spec = DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": 5, "window": 16, "base_feature_maps": 4},
            training={"learning_rate": 3e-3, "epochs": 10, "mean_warmup_epochs": 4,
                      "variance_finetune_epochs": 15, "max_train_windows": 400},
        ),
        quantization=QuantizationSpec(),
        seed=0,
    )
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).quantize()
    detector, quantized = pipeline.detector, pipeline.quantized

    float_scores, labels = detector.score_stream(dataset.test).aligned(dataset.test_labels)
    int8_scores, _ = quantized.score_stream(dataset.test).aligned(dataset.test_labels)
    float_auc = roc_auc_score(float_scores, labels)
    int8_auc = roc_auc_score(int8_scores, labels)

    clean_float = detector.score_stream(dataset.train).valid_scores()
    clean_int8 = quantized.score_stream(dataset.train).valid_scores()
    clean_drift = np.abs(clean_int8 - clean_float) / np.abs(clean_float)

    print()
    print("quantized accuracy -- synthetic anomaly benchmark "
          f"({dataset.anomaly_fraction:.1%} anomalous)")
    print(f"  float AUC-ROC: {float_auc:.4f}")
    print(f"  int8  AUC-ROC: {int8_auc:.4f}   (|diff| = {abs(float_auc - int8_auc):.4f})")
    print(f"  in-distribution score drift: max {clean_drift.max():.4f}, "
          f"mean {clean_drift.mean():.4f}")

    assert float_auc > 0.8, f"float VARADE failed to detect (AUC {float_auc:.3f})"
    assert abs(float_auc - int8_auc) <= AUC_TOLERANCE, (
        f"int8 AUC {int8_auc:.4f} drifts more than {AUC_TOLERANCE} from float "
        f"{float_auc:.4f}"
    )


def test_quantized_edge_estimates():
    """Side-by-side Jetson estimates for float vs int8 at paper scale.

    The edge-sized reproduction models are launch-overhead bound, where
    quantization cannot help; the paper-scale VARADE (window 512, 128-1024
    feature maps) is compute/memory bound, which is where the device's int8
    multipliers and the 4x smaller weights show up.
    """
    from dataclasses import replace

    paper = VaradeDetector(VaradeConfig.paper(86))
    float_cost = paper.inference_cost()
    # Analytical int8 profile of the same network: same MAC count, int8
    # weights/activations, integer dot-product units.
    int8_cost = replace(float_cost,
                        parameter_bytes=float_cost.parameter_bytes / 4.0,
                        activation_bytes=float_cost.activation_bytes / 4.0,
                        compute_dtype="int8")
    print()
    print("estimated edge metrics -- paper-scale VARADE, float vs int8")
    print(f"{'board':>18} {'dtype':>8} {'hz':>9} {'power W':>8} {'ram MB':>8}")
    for name, device in DEVICES.items():
        estimator = EdgeEstimator(device)
        for label, cost in (("float32", float_cost), ("int8", int8_cost)):
            metrics = estimator.estimate(cost, "VARADE")
            print(f"{name:>18} {label:>8} {metrics.inference_frequency_hz:>9.1f} "
                  f"{metrics.power_w:>8.2f} {metrics.ram_mb:>8.0f}")
        float_metrics = estimator.estimate(float_cost, "f")
        int8_metrics = estimator.estimate(int8_cost, "q")
        assert int8_metrics.inference_frequency_hz > float_metrics.inference_frequency_hz, \
            f"{name}: int8 estimate not faster than float at paper scale"
        assert int8_metrics.ram_mb < float_metrics.ram_mb
