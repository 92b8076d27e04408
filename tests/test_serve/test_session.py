"""ScoringSession unit tests: state machine, budgets, ordering, recording."""

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.data import StreamReader
from repro.data.normalization import MinMaxScaler
from repro.edge import StreamingRuntime
from repro.serve import ScoringSession, SessionClosedError

from serve_helpers import make_stream


class TestInlinePush:
    @pytest.mark.parametrize("name", ["VARADE", "GBRF"])
    def test_push_matches_streaming_runtime(self, detectors, name):
        """Inline sessions are the StreamingRuntime path, window-state and
        forecaster alignment included."""
        detector = detectors[name]
        data, labels = make_stream(45, seed=9)
        session = ScoringSession(detector, "s0")
        for row in data:
            session.push(row)
        result = session.result(labels=labels)
        reference = StreamingRuntime(detector).run(StreamReader(data, labels=labels))
        np.testing.assert_allclose(result.scores, reference.scores,
                                   rtol=0.0, atol=0.0, equal_nan=True)
        assert result.samples_scored == reference.samples_scored
        np.testing.assert_array_equal(result.labels, reference.labels)

    def test_warmup_prefix_returns_none(self, detectors):
        detector = detectors["VARADE"]
        session = ScoringSession(detector, "s0")
        data, _ = make_stream(detector.window - 1, seed=3)
        assert all(session.push(row) is None for row in data)
        assert session.samples_scored == 0
        assert np.isnan(session.result().scores).all()

    def test_push_returns_alarm_only_above_threshold(self, detectors,
                                                     train_stream):
        detector = detectors["kNN"]
        scores = detector.score_stream(train_stream).valid_scores()
        threshold = ThresholdCalibrator(quantile=0.9).calibrate(scores)
        session = ScoringSession(detector, "cell", threshold=threshold)
        data, _ = make_stream(30, seed=11)
        data[20] += 50.0   # unmistakable spike
        alarms = [session.push(row) for row in data]
        raised = [a for a in alarms if a is not None]
        assert raised and all(a.alarm for a in raised)
        assert any(a.index == 20 for a in raised)
        assert all(a.stream_id == "cell" for a in raised)

    def test_max_samples_budget(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(40, seed=5)
        session = ScoringSession(detector, "s0", max_samples=7)
        for row in data:
            session.push(row)
        reference = StreamingRuntime(detector).run(StreamReader(data),
                                                   max_samples=7)
        result = session.result()
        assert result.samples_scored == reference.samples_scored == 7
        np.testing.assert_allclose(result.scores, reference.scores,
                                   rtol=0.0, atol=0.0, equal_nan=True)


class TestStateMachine:
    def test_submit_matches_score_stream_on_a_forecaster(self, detectors):
        """GBRF scores the sample *after* its window: per-row ``submit``
        emits its first request one sample later than on VARADE, with the
        context that excludes the target, and the batch-scored requests
        reproduce ``score_stream``.  (kNN shares the alignment, but its
        distance GEMM rounds differently per batch size, so it cannot be
        held to ``score_stream`` bit for bit.)"""
        detector = detectors["GBRF"]
        assert not detector.scores_current_sample
        data, _ = make_stream(30, seed=12)
        session = ScoringSession(detector, "s0")
        requests = [session.submit(row) for row in data]
        assert requests[:detector.window] == [None] * detector.window
        emitted = requests[detector.window:]
        assert all(request.score is None for request in emitted)
        for request in emitted:
            np.testing.assert_array_equal(
                request.context,
                data[request.index - detector.window:request.index])
            score = detector.score_windows_batch(request.context[None],
                                                 request.target[None])[0]
            session.complete(request, score)
        np.testing.assert_array_equal(session.result().scores,
                                      detector.score_stream(data).scores)

    def test_completions_must_follow_submission_order(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(detector.window + 3, seed=2)
        session = ScoringSession(detector, "s0")
        requests = [r for r in (session.submit(row) for row in data)
                    if r is not None]
        assert len(requests) >= 2
        with pytest.raises(ValueError, match="submission order"):
            session.complete(requests[1], 0.0)
        # In order still works after the failed attempt.
        session.complete(requests[0], 0.5)
        session.complete(requests[1], 0.5)

    def test_complete_rejects_foreign_request(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(detector.window, seed=2)
        one, two = ScoringSession(detector, "a"), ScoringSession(detector, "b")
        request = None
        for row in data:
            request = one.submit(row)
        assert request is not None
        with pytest.raises(ValueError, match="different session"):
            two.complete(request, 0.0)

    def test_closed_session_refuses_pushes(self, detectors):
        session = ScoringSession(detectors["VARADE"], "s0")
        session.close()
        with pytest.raises(SessionClosedError):
            session.push(np.zeros(3))

    def test_discard_skips_sequence_and_keeps_nan(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(detector.window + 2, seed=4)
        session = ScoringSession(detector, "s0")
        requests = [r for r in (session.submit(row) for row in data)
                    if r is not None]
        session.discard(requests[0])
        sample = session.complete(requests[1], 1.25)
        assert sample.index == requests[1].index
        assert session.samples_dropped == 1
        scores = session.result().scores
        assert np.isnan(scores[requests[0].index])
        assert scores[requests[1].index] == 1.25

    def test_discard_mid_queue_keeps_order_consistent(self, detectors):
        """A rejected (newest) request can be discarded while older ones are
        still outstanding; completions skip the hole in order."""
        detector = detectors["VARADE"]
        data, _ = make_stream(detector.window + 3, seed=4)
        session = ScoringSession(detector, "s0")
        requests = [r for r in (session.submit(row) for row in data)
                    if r is not None]
        assert len(requests) >= 3
        session.discard(requests[1])           # drop the middle one
        session.complete(requests[0], 1.0)     # oldest still completes
        session.complete(requests[2], 2.0)     # order skips the hole
        with pytest.raises(ValueError, match="already completed or discarded"):
            session.discard(requests[1])
        scores = session.result().scores
        assert np.isnan(scores[requests[1].index])
        assert scores[requests[0].index] == 1.0
        assert scores[requests[2].index] == 2.0


class TestOptions:
    def test_scaler_is_applied_before_windowing(self, detectors, train_stream):
        detector = detectors["VARADE"]
        scaler = MinMaxScaler().fit(train_stream)
        raw, _ = make_stream(30, seed=6)
        scaled_session = ScoringSession(detector, "s0")
        raw_session = ScoringSession(detector, "s1", scaler=scaler)
        for row in raw:
            scaled_session.push(scaler.transform(row[None, :])[0])
            raw_session.push(row)
        np.testing.assert_allclose(raw_session.result().scores,
                                   scaled_session.result().scores,
                                   rtol=0.0, atol=0.0, equal_nan=True)

    def test_record_false_has_no_result(self, detectors):
        session = ScoringSession(detectors["VARADE"], "s0", record=False)
        with pytest.raises(RuntimeError, match="record=False"):
            session.result()

    def test_result_validates_label_length(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(12, seed=8)
        session = ScoringSession(detector, "s0")
        for row in data:
            session.push(row)
        with pytest.raises(ValueError, match="one entry per pushed sample"):
            session.result(labels=np.zeros(5))

    def test_rejects_bad_max_samples(self, detectors):
        with pytest.raises(ValueError, match="max_samples"):
            ScoringSession(detectors["VARADE"], "s0", max_samples=0)
