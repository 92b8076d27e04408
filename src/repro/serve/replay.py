"""Offline replay: recorded streams through sessions and a micro-batcher.

:func:`replay_streams` is the one synchronous sessions -> batcher loop in
the tree.  :meth:`repro.pipeline.Pipeline.deploy_fleet` (per-stream
:class:`~repro.edge.StreamingResult`\\ s for N recordings) and
:func:`repro.lifecycle.record_baseline` (an artifact's golden statistics)
both drive it; each builds the :class:`~repro.serve.ScoringSession`\\ s and
the :class:`~repro.serve.MicroBatcher` it wants and reads what it needs
from them afterwards.

The loop has no clock: an offline replay has nothing for ``max_delay_ms``
to wait on, so it submits round-robin (sample ``t`` of every stream, then
``t + 1``), flushes whenever ``max_batch`` requests are pending and drains
at the end.  A stream that ends early simply stops submitting while the
rest keep going.  Scores, alarms, NaN warm-up prefix, ``max_samples``
budget and per-session adaptation lanes are those of running
:class:`repro.edge.StreamingRuntime` once per stream, bit for bit --
batched scoring is batch-invariant and sessions complete in per-stream
order (``tests/test_edge/test_fleet_parity.py``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .batcher import MicroBatcher
from .session import ScoredSample, ScoringSession

__all__ = ["replay_streams"]


def replay_streams(sessions: Sequence[ScoringSession],
                   streams: Sequence[np.ndarray],
                   batcher: MicroBatcher) -> Iterator[ScoredSample]:
    """Push ``streams[i]`` through ``sessions[i]``; yield every scored sample.

    ``streams`` are ``(n_samples, channels)`` arrays sharing one channel
    count; every session must carry the batcher's detector.  The generator
    must be consumed to the end for the replay to complete -- recording
    sessions then hold the per-stream results
    (:meth:`~repro.serve.ScoringSession.result`), the batcher the flush
    counters and histograms.
    """
    lanes = list(zip(sessions, streams, strict=True))
    widths = sorted({stream.shape[1] for _, stream in lanes})
    if len(widths) > 1:
        raise ValueError(
            f"all streams must share one channel count: got {widths}")
    longest = max((len(stream) for stream in streams), default=0)
    for position in range(longest):
        for session, stream in lanes:
            if position >= len(stream):
                continue
            request = session.submit(stream[position])
            if request is None:
                continue
            yield from batcher.enqueue(request)
            if batcher.pending_count() >= batcher.max_batch:
                yield from batcher.flush()
    yield from batcher.drain()
