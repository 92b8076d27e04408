"""Experiment F2 -- incremental O(1)-per-sample scoring vs the batch fastpath.

Single-stream serving used to re-run the full ``FastForwardPlan`` forward for
every arriving sample -- O(window) work per sample at window 64.  The
streaming driver (:class:`repro.nn.IncrementalForwardPlan`, one class over
the float and the int8 kernel) computes only each layer's newest activation
column per sample, and its chunked ``push_many`` amortises the per-push
Python dispatch on replay and micro-batched ingestion.  On either kernel it
is bit-identical to the batch plan (the
parity suites in ``tests/test_nn/test_incremental.py`` and
``tests/test_serve/test_incremental_serving.py`` enforce exact equality);
this benchmark gates the speed claim: **>= 5x single-stream samples/sec over
the per-window batch path at window 64** on the chunked path.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental_scoring.py -q -s
"""

import time

import numpy as np
import pytest

from repro.pipeline import DeploymentSpec, DetectorSpec, Pipeline

N_CHANNELS = 6
WINDOW = 64
STREAM_SAMPLES = 2_000
CHUNK = 64
TIMING_REPEATS = 3


@pytest.fixture(scope="module")
def incremental_varade(fleet_stream_factory):
    """A trained VARADE at the acceptance operating point (window 64)."""
    spec = DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": N_CHANNELS, "window": WINDOW,
                    "base_feature_maps": 8},
            training={"learning_rate": 3e-3, "epochs": 2,
                      "mean_warmup_epochs": 1, "variance_finetune_epochs": 1,
                      "max_train_windows": 200},
        ),
        seed=0,
    )
    return Pipeline.from_spec(spec).fit(
        fleet_stream_factory(600, seed=3)).detector


@pytest.fixture(scope="module")
def bench_stream(fleet_stream_factory):
    return fleet_stream_factory(STREAM_SAMPLES, seed=11)


def _best_of(repeats, run):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _batch_per_window(detector, stream):
    """The pre-incremental hot path: one-row batch call per sample."""
    scores = np.full(stream.shape[0], np.nan)
    window = detector.window
    for t in range(window - 1, stream.shape[0]):
        scores[t] = detector.score_windows_batch(
            stream[t - window + 1:t + 1][None, ...], stream[t][None, :])[0]
    return scores


def _push_single(detector, stream):
    scorer = detector.incremental_scorer()
    scores = np.full(stream.shape[0], np.nan)
    for t in range(stream.shape[0]):
        score = scorer.push(stream[t])
        if score is not None:
            scores[t] = score
    return scores


def _push_chunked(detector, stream):
    scorer = detector.incremental_scorer()
    scores = np.empty(stream.shape[0])
    for offset in range(0, stream.shape[0], CHUNK):
        block = stream[offset:offset + CHUNK]
        scores[offset:offset + block.shape[0]] = scorer.push_many(block)
    return scores


def _measure(detector, stream, label, rows):
    scored = stream.shape[0] - detector.window + 1
    batch_time, batch_scores = _best_of(
        TIMING_REPEATS, lambda: _batch_per_window(detector, stream))
    single_time, single_scores = _best_of(
        TIMING_REPEATS, lambda: _push_single(detector, stream))
    chunk_time, chunk_scores = _best_of(
        TIMING_REPEATS, lambda: _push_chunked(detector, stream))
    # The speedup claim is only meaningful because the bits are identical.
    np.testing.assert_array_equal(single_scores, batch_scores)
    np.testing.assert_array_equal(chunk_scores, batch_scores)
    batch_sps = scored / batch_time
    single_sps = scored / single_time
    chunk_sps = scored / chunk_time
    rows.append((label, batch_sps, single_sps, single_sps / batch_sps,
                 chunk_sps, chunk_sps / batch_sps))
    return single_sps / batch_sps, chunk_sps / batch_sps


def test_incremental_scoring_speedup(benchmark, incremental_varade,
                                     bench_stream):
    detector = incremental_varade
    assert detector.incremental_scorer() is not None
    rows = []
    _, float_chunk_speedup = _measure(detector, bench_stream, "float64", rows)
    int8 = detector.quantize(bench_stream[:600])
    assert int8.incremental_scorer() is not None
    _, int8_chunk_speedup = _measure(int8, bench_stream, "int8", rows)

    print()
    print(f"incremental scoring -- VARADE, window {WINDOW}, "
          f"{N_CHANNELS} channels, {STREAM_SAMPLES} samples, chunk {CHUNK}")
    print(f"{'plan':>8} {'batch sps':>12} {'push sps':>12} {'speedup':>8} "
          f"{'chunked sps':>12} {'speedup':>8}")
    for label, batch_sps, single_sps, single_x, chunk_sps, chunk_x in rows:
        print(f"{label:>8} {batch_sps:>12,.0f} {single_sps:>12,.0f} "
              f"{single_x:>7.2f}x {chunk_sps:>12,.0f} {chunk_x:>7.2f}x")

    # Record the chunked float path at the acceptance operating point.
    benchmark(lambda: _push_chunked(detector, bench_stream))

    # Acceptance: >= 5x the per-window batch path at window 64 (chunked).
    assert float_chunk_speedup >= 5.0, \
        f"float chunked speedup only {float_chunk_speedup:.2f}x"
    assert int8_chunk_speedup >= 3.0, \
        f"int8 chunked speedup only {int8_chunk_speedup:.2f}x"
