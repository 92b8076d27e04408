"""Hypothesis property tests for the micro-batcher.

The scheduler invariants the serving API rests on:

* **exactly-once** -- no submitted window is lost or duplicated, under any
  interleaving of pushes, flushes and clock advances;
* **per-session order** -- each session's samples complete in submission
  order regardless of how sessions interleave in the batches;
* **latency budget** -- with a driver that calls ``flush_due`` after every
  step, no request waits more than ``max_delay_ms`` plus one step;
* **backpressure safety** -- ``block`` always makes progress (never
  deadlocks), ``drop_oldest`` shed + scored adds up to submitted, and a
  ``reject`` leaves the queue consistent.

A stub detector (cheap deterministic scoring, no training) and a fake clock
keep the properties fast and fully reproducible.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import AnomalyDetector, InferenceCost
from repro.serve import MicroBatcher, QueueFullError, ScoringSession

N_CHANNELS = 2
WINDOW = 3


class StubDetector(AnomalyDetector):
    """Deterministic toy detector: score = mean(context) + 10 * mean(target).

    Cheap enough for property tests, and sensitive to both inputs so a
    swapped window or target would change the score and break parity.
    """

    name = "stub"
    scores_current_sample = False

    def __init__(self) -> None:
        super().__init__(window=WINDOW)
        self._mark_fitted()

    def fit(self, train_data):  # pragma: no cover - never trained
        return self

    def score_windows_batch(self, windows, targets):
        windows, targets = self._validate_batch(windows, targets)
        return windows.reshape(len(windows), -1).mean(axis=1) \
            + 10.0 * targets.mean(axis=1)

    def inference_cost(self):  # pragma: no cover - not estimated here
        return InferenceCost(flops=1.0, parameter_bytes=1.0, activation_bytes=1.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _sample(stream: int, index: int) -> np.ndarray:
    """A per-(stream, index) unique sample so scores identify their origin."""
    return np.full(N_CHANNELS, stream * 1000.0 + index, dtype=np.float64)


#: one simulated driver step: (stream to push to, clock advance in ms)
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.floats(min_value=0.0, max_value=4.0)),
    min_size=1, max_size=120,
)


def _drive(detector, policy, max_batch, max_queue, max_delay_ms, step_list,
           flush_after_each=True):
    """Run a push schedule; return (sessions, batcher, completions, rejects)."""
    clock = FakeClock()
    sessions = [ScoringSession(detector, f"s{stream}") for stream in range(4)]
    batcher = MicroBatcher(detector, max_batch=max_batch,
                           max_delay_ms=max_delay_ms, max_queue=max_queue,
                           backpressure=policy, clock=clock)
    completions = []
    rejects = defaultdict(int)
    pushed = defaultdict(int)
    for stream, advance_ms in step_list:
        clock.advance(advance_ms / 1000.0)
        request = sessions[stream].submit(_sample(stream, pushed[stream]))
        pushed[stream] += 1
        if request is not None:
            try:
                completions.extend(batcher.enqueue(request))
            except QueueFullError:
                rejects[stream] += 1
        if flush_after_each:
            completions.extend(batcher.flush_due())
    completions.extend(batcher.drain())
    return sessions, batcher, completions, rejects, pushed


class TestExactlyOnce:
    @settings(max_examples=60, deadline=None)
    @given(step_list=steps, max_batch=st.integers(1, 8),
           max_queue=st.integers(1, 6))
    def test_block_never_loses_or_duplicates(self, step_list, max_batch,
                                             max_queue):
        detector = StubDetector()
        sessions, batcher, completions, rejects, pushed = _drive(
            detector, "block", max_batch, max_queue, 5.0, step_list)
        assert not rejects
        per_session = defaultdict(list)
        for sample in completions:
            per_session[sample.stream_id].append(sample.index)
        for stream, session in enumerate(sessions):
            # The stub is a forecaster: the first scorable sample arrives
            # once WINDOW context samples precede it.
            submitted = max(pushed[stream] - WINDOW, 0)
            indices = per_session[session.stream_id]
            # exactly once, in submission order
            assert indices == sorted(indices)
            assert len(indices) == len(set(indices))
            assert len(indices) == submitted
            assert session.samples_scored == submitted
            assert session.outstanding == 0
            assert session.samples_dropped == 0
        # every completed score identifies its (stream, target) pair exactly
        for sample in completions:
            stream = int(sample.stream_id[1:])
            expected = float(np.mean(
                [np.mean(_sample(stream, sample.index - WINDOW + offset))
                 for offset in range(WINDOW)]
            ) + 10.0 * np.mean(_sample(stream, sample.index)))
            assert sample.score == pytest.approx(expected, rel=0, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(step_list=steps, max_batch=st.integers(1, 8),
           max_queue=st.integers(1, 6))
    def test_drop_oldest_accounts_for_every_submission(self, step_list,
                                                       max_batch, max_queue):
        detector = StubDetector()
        sessions, batcher, completions, rejects, pushed = _drive(
            detector, "drop_oldest", max_batch, max_queue, 5.0, step_list,
            flush_after_each=False)
        assert not rejects
        per_session = defaultdict(list)
        for sample in completions:
            per_session[sample.stream_id].append(sample.index)
        total_dropped = 0
        for stream, session in enumerate(sessions):
            submitted = max(pushed[stream] - WINDOW, 0)
            indices = per_session[session.stream_id]
            assert indices == sorted(indices)
            assert len(indices) == len(set(indices))
            assert session.samples_scored == len(indices)
            # scored + dropped covers every submission -- nothing vanishes
            assert session.samples_scored + session.samples_dropped == submitted
            assert session.outstanding == 0
            total_dropped += session.samples_dropped
        assert batcher.dropped == total_dropped

    @settings(max_examples=60, deadline=None)
    @given(step_list=steps, max_batch=st.integers(1, 8),
           max_queue=st.integers(1, 6))
    def test_reject_keeps_queue_consistent(self, step_list, max_batch,
                                           max_queue):
        detector = StubDetector()
        sessions, batcher, completions, rejects, _ = _drive(
            detector, "reject", max_batch, max_queue, 5.0, step_list,
            flush_after_each=False)
        # after the final drain nothing is pending and order still holds
        assert batcher.pending_count() == 0
        per_session = defaultdict(list)
        for sample in completions:
            per_session[sample.stream_id].append(sample.index)
        for session in sessions:
            indices = per_session[session.stream_id]
            assert indices == sorted(indices)
            assert len(indices) == len(set(indices))
            assert session.outstanding == 0


@settings(max_examples=60, deadline=None)
@given(step_list=steps, max_batch=st.integers(1, 8),
       max_delay_ms=st.floats(min_value=0.5, max_value=10.0))
def test_flush_due_bounds_queue_delay(step_list, max_batch, max_delay_ms):
    """With flush_due after every step, no request outlives the budget by
    more than one driver step."""
    detector = StubDetector()
    _, _, completions, _, _ = _drive(
        detector, "block", max_batch, 64, max_delay_ms, step_list)
    max_step_s = 4.0 / 1000.0
    budget_s = max_delay_ms / 1000.0
    for sample in completions:
        assert sample.queue_delay_s is not None
        assert sample.queue_delay_s <= budget_s + max_step_s + 1e-9


@settings(max_examples=40, deadline=None)
@given(step_list=steps)
def test_batches_never_exceed_max_batch(step_list):
    detector = StubDetector()
    _, batcher, _, _, _ = _drive(detector, "block", 4, 64, 5.0, step_list,
                                 flush_after_each=False)
    assert batcher.occupancy_histogram.max <= 4 or np.isnan(
        batcher.occupancy_histogram.max)


def test_block_flushes_inline_to_make_room():
    """The sync core's 'block' policy makes room by scoring, so an enqueue
    into a full queue always succeeds (no deadlock, nothing lost)."""
    detector = StubDetector()
    clock = FakeClock()
    session = ScoringSession(detector, "s0")
    batcher = MicroBatcher(detector, max_batch=2, max_delay_ms=1e6,
                           max_queue=1, backpressure="block", clock=clock)
    scored = []
    for index in range(WINDOW + 10):
        request = session.submit(_sample(0, index))
        if request is not None:
            scored.extend(batcher.enqueue(request))
    scored.extend(batcher.drain())
    assert [sample.index for sample in scored] == sorted(
        sample.index for sample in scored)
    assert session.samples_scored == 10
    assert session.samples_dropped == 0
