"""Integration tests: drift adaptation wired into the streaming runtime and
the batched fleet replay (``Pipeline.deploy_fleet``)."""

import numpy as np
import pytest

from repro.data import StreamReader, build_drift_scenario
from repro.drift import AdaptationPolicy
from repro.edge import StreamingRuntime
from repro.eval import compare_adaptation, drift_detection_delay
from repro.pipeline import (AdaptationSpec, DeploymentSpec, DetectorSpec,
                            Pipeline)

SEED = 11


@pytest.fixture(scope="module")
def mean_shift_scenario():
    return build_drift_scenario("mean_shift", n_test=2400, seed=SEED)


def _knn_pipeline(n_channels, adaptation, max_reference_points=600):
    """A kNN deployment; ``AdaptationSpec()`` is ``AdaptationPolicy()``."""
    return Pipeline.from_spec(DeploymentSpec(
        detector=DetectorSpec(kind="knn", params={
            "n_channels": n_channels,
            "max_reference_points": max_reference_points}),
        adaptation=adaptation, seed=0))


@pytest.fixture(scope="module")
def adaptive_pipeline(mean_shift_scenario):
    scenario = mean_shift_scenario
    return _knn_pipeline(scenario.n_channels, AdaptationSpec()) \
        .fit(scenario.train).calibrate()


@pytest.fixture(scope="module")
def frozen_pipeline(mean_shift_scenario):
    """The same (deterministic) fit without the adaptation stage."""
    scenario = mean_shift_scenario
    return _knn_pipeline(scenario.n_channels, None) \
        .fit(scenario.train).calibrate()


@pytest.fixture(scope="module")
def fitted_knn(adaptive_pipeline):
    return adaptive_pipeline.detector


@pytest.fixture(scope="module")
def clean_stream(mean_shift_scenario):
    """A drift-free stream (anomaly bursts included) with its labels."""
    start = mean_shift_scenario.drift_start
    return (mean_shift_scenario.stream[:start],
            mean_shift_scenario.labels[:start])


class TestNoDriftBitIdentity:
    def test_single_stream_scores_and_alarms_identical(self, fitted_knn,
                                                       clean_stream):
        data, labels = clean_stream
        plain = StreamingRuntime(fitted_knn).run(StreamReader(data, labels))
        adaptive = StreamingRuntime(
            fitted_knn, adaptation=AdaptationPolicy()
        ).run(StreamReader(data, labels))
        assert adaptive.adaptation_events == []
        assert np.array_equal(plain.scores, adaptive.scores, equal_nan=True)
        assert np.array_equal(plain.alarms, adaptive.alarms)

    def test_fleet_scores_and_alarms_identical(self, frozen_pipeline,
                                               adaptive_pipeline, clean_stream):
        data, labels = clean_stream
        plain = frozen_pipeline.deploy_fleet([data, data],
                                             labels=[labels, labels])
        adaptive = adaptive_pipeline.deploy_fleet([data, data],
                                                  labels=[labels, labels])
        for plain_stream, adaptive_stream in zip(plain, adaptive):
            assert adaptive_stream.adaptation_events == []
            assert np.array_equal(plain_stream.scores, adaptive_stream.scores,
                                  equal_nan=True)
            assert np.array_equal(plain_stream.alarms, adaptive_stream.alarms)

    def test_threshold_trace_is_flat_without_drift(self, fitted_knn,
                                                   clean_stream):
        data, labels = clean_stream
        result = StreamingRuntime(
            fitted_knn, adaptation=AdaptationPolicy()
        ).run(StreamReader(data, labels))
        trace = result.threshold_trace
        assert trace is not None
        scored = np.isfinite(trace)
        assert scored.sum() == result.samples_scored
        assert np.unique(trace[scored]).size == 1
        assert trace[scored][0] == fitted_knn.threshold.threshold


class TestMeanShiftAdaptation:
    @pytest.fixture(scope="class")
    def runs(self, fitted_knn, mean_shift_scenario):
        scenario = mean_shift_scenario
        frozen = StreamingRuntime(fitted_knn).run(
            StreamReader(scenario.stream, scenario.labels))
        adaptive = StreamingRuntime(
            fitted_knn, adaptation=AdaptationPolicy()
        ).run(StreamReader(scenario.stream, scenario.labels))
        return frozen, adaptive

    def test_detection_delay_bounded(self, runs, mean_shift_scenario):
        _, adaptive = runs
        delay = drift_detection_delay(adaptive.adaptation_events,
                                      mean_shift_scenario.drift_start)
        assert np.isfinite(delay)
        assert delay <= 400

    def test_scores_unchanged_by_adaptation(self, runs):
        """Adaptation touches alarms only -- scores must stay bit-identical."""
        frozen, adaptive = runs
        assert np.array_equal(frozen.scores, adaptive.scores, equal_nan=True)

    def test_adaptive_raises_threshold_and_stops_false_alarms(
            self, runs, mean_shift_scenario):
        frozen, adaptive = runs
        report = compare_adaptation(frozen, adaptive,
                                    mean_shift_scenario.drift_start)
        assert report.post_far_frozen > 0.5
        assert report.post_far_adaptive < 0.05
        assert adaptive.adaptation_events[0].new_threshold > \
            adaptive.adaptation_events[0].old_threshold

    def test_threshold_trace_steps_at_adaptation(self, runs):
        _, adaptive = runs
        event = adaptive.adaptation_events[0]
        trace = adaptive.threshold_trace
        assert trace[event.adapted_at] == event.old_threshold
        assert trace[event.adapted_at + 1] == event.new_threshold


class TestFleetPerStreamAdaptation:
    def test_drift_in_one_stream_leaves_the_other_frozen(
            self, frozen_pipeline, adaptive_pipeline, mean_shift_scenario,
            clean_stream):
        clean_data, clean_labels = clean_stream
        scenario = mean_shift_scenario
        streams = [clean_data, scenario.stream]
        labels = [clean_labels, scenario.labels]

        fleet = adaptive_pipeline.deploy_fleet(streams, labels=labels)
        clean_result, drifted_result = fleet[0], fleet[1]

        assert clean_result.adaptation_events == []
        assert drifted_result.adaptation_events

        # The clean lane stays bit-identical to the same fleet without
        # adaptation (same batch composition; adaptation is the only
        # variable -- a solo run would differ by BLAS batch-shape ULPs).
        frozen_fleet = frozen_pipeline.deploy_fleet(streams, labels=labels)
        assert np.array_equal(frozen_fleet[0].scores, clean_result.scores,
                              equal_nan=True)
        assert np.array_equal(frozen_fleet[0].alarms, clean_result.alarms)

        # And its threshold never moved, while the drifted lane's did.
        clean_trace = clean_result.threshold_trace
        assert np.unique(clean_trace[np.isfinite(clean_trace)]).size == 1
        drifted_trace = drifted_result.threshold_trace
        assert np.unique(drifted_trace[np.isfinite(drifted_trace)]).size > 1

    def test_fleet_matches_single_stream_adaptation(self, fitted_knn,
                                                    adaptive_pipeline,
                                                    mean_shift_scenario):
        """One drifted stream adapts identically under both drivers."""
        scenario = mean_shift_scenario
        solo = StreamingRuntime(
            fitted_knn, adaptation=AdaptationPolicy()
        ).run(StreamReader(scenario.stream, scenario.labels))
        fleet = adaptive_pipeline.deploy_fleet([scenario.stream],
                                               labels=[scenario.labels])
        assert np.array_equal(solo.scores, fleet[0].scores, equal_nan=True)
        assert np.array_equal(solo.alarms, fleet[0].alarms)
        assert [e.new_threshold for e in solo.adaptation_events] == \
            [e.new_threshold for e in fleet[0].adaptation_events]


class TestAdaptationRequiresThreshold:
    @pytest.fixture(scope="class")
    def uncalibrated(self, clean_stream):
        data, _ = clean_stream
        return _knn_pipeline(data.shape[1], AdaptationSpec(),
                             max_reference_points=100).fit(data[:200])

    def test_streaming_runtime_raises_without_threshold(self, uncalibrated,
                                                        clean_stream):
        data, labels = clean_stream
        runtime = StreamingRuntime(uncalibrated.detector,
                                   adaptation=AdaptationPolicy())
        with pytest.raises(ValueError, match="initial CalibratedThreshold"):
            runtime.run(StreamReader(data, labels))

    def test_fleet_runtime_raises_without_threshold(self, uncalibrated,
                                                    clean_stream):
        data, labels = clean_stream
        with pytest.raises(ValueError, match="initial CalibratedThreshold"):
            uncalibrated.deploy_fleet([data], labels=[labels])
