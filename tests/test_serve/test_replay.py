"""The offline replay loop: sessions + batcher over recorded streams."""

import numpy as np
import pytest

from repro.edge import StreamingRuntime
from repro.serve import MicroBatcher, ScoringSession, replay_streams


def _sessions(detector, count, **kwargs):
    return [ScoringSession(detector, f"stream-{index}", **kwargs)
            for index in range(count)]


@pytest.mark.parametrize("max_batch,max_queue", [(4, 256), (3, 1), (64, 64)])
def test_yields_every_scored_sample_once_in_stream_order(
        detectors, readers, max_batch, max_queue):
    """Whatever the batch shape -- flush-when-full, blocked enqueues that
    flush to make room (``max_queue=1``), or one final drain -- every scored
    sample comes out exactly once, in per-stream order, with the sequential
    runtime's score."""
    detector = detectors["VARADE"]
    sessions = _sessions(detector, len(readers), incremental=False)
    batcher = MicroBatcher(detector, max_batch=max_batch, max_delay_ms=0.0,
                           max_queue=max_queue)
    samples = list(replay_streams(
        sessions, [reader.data for reader in readers], batcher))
    assert batcher.pending_count() == 0
    assert len(samples) == batcher.scored
    for session, reader in zip(sessions, readers):
        sequential = StreamingRuntime(detector).run(reader)
        mine = [s for s in samples if s.stream_id == session.stream_id]
        assert [s.index for s in mine] == \
            list(np.flatnonzero(np.isfinite(sequential.scores)))
        np.testing.assert_array_equal(
            [s.score for s in mine],
            sequential.scores[np.isfinite(sequential.scores)])


def test_rejects_mixed_channel_counts_and_unpaired_sessions(detectors):
    detector = detectors["VARADE"]
    batcher = MicroBatcher(detector, max_batch=2, max_delay_ms=0.0)
    wide = [np.zeros((20, 3)), np.zeros((20, 4))]
    with pytest.raises(ValueError, match="channel count"):
        list(replay_streams(_sessions(detector, 2), wide, batcher))
    with pytest.raises(ValueError):
        list(replay_streams(_sessions(detector, 1), wide, batcher))
