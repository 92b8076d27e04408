"""Score-parity suite: batched multi-stream fleet vs the sequential runtime.

For every detector in the study, :meth:`repro.pipeline.Pipeline.deploy_fleet`
(sessions + micro-batcher driven by :func:`repro.serve.replay_streams`) must
produce exactly the scores that :class:`repro.edge.StreamingRuntime` produces
when run once per stream -- bit-identical values, the same NaN prefix before
the context window fills, the same ``max_samples`` budget and the same
thresholded alarms.  This is the contract that lets the batched replay
replace the sequential path everywhere.
"""

import time

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.data import StreamReader
from repro.edge import StreamingHistogram, StreamingRuntime
from repro.eval import DETECTOR_NAMES, study_specs
from repro.pipeline import FleetStats, Pipeline

N_CHANNELS = 3
WINDOW = 8
STREAM_LENGTHS = (60, 50, 40, 25)


def _make_stream(n_samples, seed, anomaly=False):
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 20.0
    data = np.stack(
        [np.sin(2 * np.pi * (0.4 + 0.2 * c) * t + c) + 0.05 * rng.normal(size=n_samples)
         for c in range(N_CHANNELS)],
        axis=1,
    )
    labels = np.zeros(n_samples, dtype=np.int64)
    if anomaly:
        start = n_samples // 2
        data[start:start + 6] += rng.normal(0.0, 2.0, size=(6, N_CHANNELS))
        labels[start:start + 6] = 1
    return data, labels


@pytest.fixture(scope="module")
def train_stream():
    return _make_stream(220, seed=0)[0]


@pytest.fixture(scope="module")
def pipelines(train_stream):
    """All six study detectors, trained tiny but through their real code paths."""
    specs = study_specs(
        n_channels=N_CHANNELS,
        window=WINDOW,
        neural_epochs=1,
        max_train_windows=80,
        varade_feature_maps=2,
        varade_epochs=2,
        varade_warmup_epochs=1,
        lstm_hidden=8,
        seed=0,
    )
    return {name: Pipeline.from_spec(spec).fit(train_stream)
            for name, spec in specs.items()}


@pytest.fixture(scope="module")
def streams():
    """Unequal-length test streams, one with injected anomalies."""
    return [
        _make_stream(length, seed=30 + index, anomaly=index == 0)
        for index, length in enumerate(STREAM_LENGTHS)
    ]


@pytest.fixture(scope="module")
def readers(streams):
    return [StreamReader(data, labels=labels) for data, labels in streams]


def _deploy(pipeline, readers, **kwargs):
    return pipeline.deploy_fleet([reader.data for reader in readers],
                                 labels=[reader.labels for reader in readers],
                                 **kwargs)


class TestScoreParity:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_batched_scores_match_sequential(self, pipelines, readers, name):
        detector = pipelines[name].detector
        fleet = _deploy(pipelines[name], readers)
        assert len(fleet) == len(readers)
        for reader, fleet_result in zip(readers, fleet):
            sequential = StreamingRuntime(detector).run(reader)
            # Identical NaN prefix (and any other unscored samples) ...
            np.testing.assert_array_equal(
                np.isnan(fleet_result.scores), np.isnan(sequential.scores)
            )
            # ... and bit-identical scores everywhere else.
            np.testing.assert_allclose(
                fleet_result.scores, sequential.scores,
                rtol=0.0, atol=0.0, equal_nan=True,
            )
            assert fleet_result.samples_scored == sequential.samples_scored
            assert len(fleet_result.latencies_s) == fleet_result.samples_scored
            np.testing.assert_array_equal(fleet_result.labels, reader.labels)

    def test_nan_prefix_length_matches_window_semantics(self, pipelines, readers):
        """Window-state detectors score one sample earlier than forecasters."""
        for name, pipeline in pipelines.items():
            detector = pipeline.detector
            fleet = _deploy(pipeline, readers)
            first_valid = int(np.flatnonzero(np.isfinite(fleet[0].scores))[0])
            expected = detector.window - 1 if detector.scores_current_sample \
                else detector.window
            assert first_valid == expected, name

    def test_max_samples_budget_matches_sequential(self, pipelines, readers):
        detector = pipelines["VARADE"].detector
        fleet = _deploy(pipelines["VARADE"], readers, max_samples=10)
        for reader, fleet_result in zip(readers, fleet):
            sequential = StreamingRuntime(detector).run(reader, max_samples=10)
            assert fleet_result.samples_scored == sequential.samples_scored <= 10
            np.testing.assert_allclose(
                fleet_result.scores, sequential.scores,
                rtol=0.0, atol=0.0, equal_nan=True,
            )

    def test_threshold_alarms_match_sequential(self, pipelines, readers, train_stream):
        detector = pipelines["VARADE"].detector
        normal_scores = detector.score_stream(train_stream).valid_scores()
        threshold = ThresholdCalibrator(quantile=0.9).calibrate(normal_scores)
        detector.set_threshold(threshold)
        try:
            fleet = _deploy(pipelines["VARADE"], readers)
        finally:
            detector.set_threshold(None)
        assert sum(int(result.alarms.sum()) for result in fleet) > 0
        for reader, fleet_result in zip(readers, fleet):
            sequential = StreamingRuntime(detector, threshold=threshold).run(reader)
            np.testing.assert_array_equal(fleet_result.alarms, sequential.alarms)
            np.testing.assert_array_equal(fleet_result.threshold_trace,
                                          sequential.threshold_trace)


class TestFleetRuntime:
    def test_rejects_empty_fleet(self, pipelines):
        with pytest.raises(ValueError, match="at least one stream"):
            pipelines["VARADE"].deploy_fleet([])

    def test_rejects_mixed_channel_counts(self, pipelines):
        streams = [np.zeros((30, N_CHANNELS)), np.zeros((30, N_CHANNELS + 1))]
        with pytest.raises(ValueError, match="channel count"):
            pipelines["VARADE"].deploy_fleet(streams)

    def test_stats_account_for_every_scored_sample(self, pipelines, readers):
        fleet = _deploy(pipelines["VARADE"], readers)
        stats = fleet.stats
        assert stats.samples_scored == sum(r.samples_scored for r in fleet)
        assert 0 < stats.flushes <= stats.samples_scored
        assert 0.0 < stats.scoring_time_s <= stats.wall_time_s
        assert stats.samples_per_second > 0.0
        assert 1.0 <= stats.mean_batch_size <= len(readers)

    def test_short_stream_drops_out_of_the_batch(self, pipelines, readers):
        """Once the shortest stream ends, the rest of the fleet scores on."""
        fleet = _deploy(pipelines["VARADE"], readers)
        shortest = int(np.argmin(STREAM_LENGTHS))
        assert fleet[shortest].samples_scored < fleet[0].samples_scored
        assert np.isfinite(fleet[0].scores[-1])

    def test_single_stream_fleet_degenerates_to_sequential(self, pipelines, readers):
        detector = pipelines["AE"].detector
        fleet = _deploy(pipelines["AE"], readers[:1])
        sequential = StreamingRuntime(detector).run(readers[0])
        np.testing.assert_allclose(
            fleet[0].scores, sequential.scores, rtol=0.0, atol=0.0, equal_nan=True,
        )

    def test_mid_run_exhaustion_drains_and_others_continue(self, pipelines):
        """Exhaustion regression: streams ending mid-run (including one
        shorter than the context window) drain while every surviving
        stream keeps scoring to full sequential parity."""
        detector = pipelines["VARADE"].detector
        lengths = (WINDOW - 2, WINDOW, 2 * WINDOW + 1, 45)
        exhaust_readers = [
            StreamReader(_make_stream(length, seed=80 + index)[0])
            for index, length in enumerate(lengths)
        ]
        fleet = _deploy(pipelines["VARADE"], exhaust_readers)
        for reader, fleet_result in zip(exhaust_readers, fleet):
            sequential = StreamingRuntime(detector).run(reader)
            np.testing.assert_allclose(
                fleet_result.scores, sequential.scores,
                rtol=0.0, atol=0.0, equal_nan=True,
            )
            assert fleet_result.samples_scored == sequential.samples_scored
        # The sub-window stream never scored, but did not stall the fleet:
        # the longest stream scored through its final sample.
        assert fleet[0].samples_scored == 0
        assert np.isfinite(fleet[3].scores[-1])

    def test_empty_fleet_stats_are_finite_zeros(self):
        """Regression: zero-sample FleetStats used to report nan tail
        statistics."""
        stats = FleetStats(samples_scored=0, flushes=0,
                           scoring_time_s=0.0, wall_time_s=0.0,
                           latency_histogram=StreamingHistogram.log_spaced(),
                           occupancy_histogram=StreamingHistogram.linear(0.5, 4.5, 4))
        assert stats.latency_histogram.p99 == 0.0
        assert stats.occupancy_histogram.p50 == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.samples_per_second == 0.0

    def test_stats_histograms_summarise_without_trace_retention(
            self, pipelines, readers):
        """FleetStats carries the batcher's streaming latency/occupancy
        histograms: one latency entry per scored sample, one occupancy
        entry per flush."""
        fleet = _deploy(pipelines["VARADE"], readers)
        stats = fleet.stats
        assert stats.latency_histogram.count == stats.samples_scored
        assert stats.occupancy_histogram.count == stats.flushes
        assert 1.0 <= stats.occupancy_histogram.p50 <= len(readers)
        assert 0.0 < stats.latency_histogram.p99 \
            <= stats.latency_histogram.max * (1 + 1e-12)
        summary = stats.latency_histogram.summary()
        assert summary["count"] == stats.samples_scored
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


@pytest.mark.slow
def test_fleet_is_not_slower_than_sequential(pipelines):
    """Throughput guard: 8 batched streams must beat 8 sequential runs.

    The strict 3x acceptance assertion lives in
    ``benchmarks/bench_fleet_throughput.py``; this slow-tier test only guards
    against the batched path regressing below the sequential one.
    """
    detector = pipelines["VARADE"].detector
    readers = [StreamReader(_make_stream(220, seed=60 + i)[0]) for i in range(8)]

    start = time.perf_counter()
    for reader in readers:
        # Pin the incremental lane off: this guard is about micro-batching
        # amortisation vs one-window batch calls (the incremental lane has
        # its own gate in benchmarks/bench_incremental_scoring.py).
        StreamingRuntime(detector, incremental=False).run(reader)
    sequential_time = time.perf_counter() - start

    start = time.perf_counter()
    fleet = _deploy(pipelines["VARADE"], readers)
    fleet_time = time.perf_counter() - start

    assert fleet.stats.samples_scored > 0
    assert fleet_time < sequential_time
