"""Latency-budgeted micro-batching scheduler for session scoring.

Real fleets deliver samples at unaligned, bursty rates; the accelerator-
friendly path is one big :meth:`~repro.core.detector.AnomalyDetector.
score_windows_batch` call, not one Python call per stream.
:class:`MicroBatcher` bridges the two: sessions enqueue
:class:`~repro.serve.session.WindowRequest`\\ s as their samples arrive, and
the batcher coalesces *whatever is pending right now* -- across all live
sessions -- into a single batched scoring call, flushing when ``max_batch``
requests are pending or when the oldest request has waited ``max_delay_ms``.

The batcher is a synchronous core with an injectable clock: the asyncio
:class:`~repro.serve.service.AnomalyService` drives it from its scheduler
task, the offline :func:`~repro.serve.replay.replay` loop flushes it
whenever a batch fills, and the Hypothesis property suite drives it with a
fake clock.  Scoring order inside a flush is FIFO across sessions, which
preserves per-session order; detectors' batched scoring is batch-invariant
(bit-identical per row regardless of batch composition -- the PR-1 parity
contract), so micro-batching never changes a score.

On the serving path the queue carries only what needs it: samples a
session's incremental lane scored at submit complete there and then
(:meth:`~repro.serve.session.ScoringSession.submit_many`) and are merely
counted here (:meth:`MicroBatcher.record_completed`).  Requests that still
arrive pre-scored -- from an incremental session warming up again after a
weight swap, with requests already queued, or whose stream a canary
shadows -- ride the queue for ordering and skip the batched call.

Backpressure
------------

Each session may have at most ``max_queue`` requests pending.  When a
session's queue is full, ``backpressure`` picks the policy:

* ``"block"`` -- make room by flushing now (the async service instead makes
  the pusher *await* until the scheduler drains).  Chooses latency over
  loss: nothing is dropped, pushers slow to the scoring rate.
* ``"drop_oldest"`` -- discard the session's oldest pending request (its
  sample keeps a NaN score) and accept the new one.  Chooses freshness
  over completeness: right for monitoring dashboards where a stale window
  is worthless.
* ``"reject"`` -- raise :class:`QueueFullError` and accept nothing.
  Chooses explicitness: right for ingestion APIs that must tell the
  producer to back off (the TCP server turns it into an error reply).

The policies govern queued requests only: a sample completed at submit never
takes a slot, so it is never waited on, shed or refused.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from ..core.detector import AnomalyDetector
from ..edge.monitor import StreamingHistogram
from .session import ScoredSample, ScoringSession, WindowRequest

__all__ = ["BACKPRESSURE_POLICIES", "QueueFullError", "MicroBatcher",
           "validate_batcher_knobs"]

#: the accepted ``backpressure`` policy names
BACKPRESSURE_POLICIES = ("block", "drop_oldest", "reject")


class QueueFullError(RuntimeError):
    """A session's pending queue is full under the ``"reject"`` policy."""


def validate_batcher_knobs(max_batch: int, max_delay_ms: float,
                           max_queue: int, backpressure: str) -> None:
    """The one validator for the batcher knobs.

    Shared by :class:`MicroBatcher` and
    :class:`repro.serve.ServiceConfig` (and, through the latter,
    ``ServiceSpec``'s parse-time checks), so the accepted ranges and
    policies cannot diverge between spec parsing and service start.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be at least 1")
    if max_delay_ms < 0:
        raise ValueError("max_delay_ms must be non-negative")
    if max_queue < 1:
        raise ValueError("max_queue must be at least 1")
    if backpressure not in BACKPRESSURE_POLICIES:
        raise ValueError(
            f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
            f"got {backpressure!r}"
        )


class MicroBatcher:
    """Coalesce pending windows across sessions into one scoring call.

    Parameters
    ----------
    detector:
        The shared fitted detector.  Every enqueuing session must carry
        this same detector -- one model, many streams.
    max_batch:
        Flush as soon as this many requests are pending.
    max_delay_ms:
        Flush once the oldest pending request has waited this long, even if
        the batch is not full -- the latency budget.  ``0`` batches only
        what arrives between two scheduler wake-ups.
    max_queue:
        Per-session bound on pending requests.
    backpressure:
        ``"block"`` / ``"drop_oldest"`` / ``"reject"`` -- see the module
        docstring for when to pick which.
    clock:
        Monotonic time source (injectable for deterministic tests).
    tracer:
        Optional :class:`repro.obs.TraceRecorder`.  When set, every flush
        records one ``"flush"`` span on the ``"batcher"`` track plus one
        ``"enqueue_to_score"`` span per request on that request's stream
        track.  ``None`` (the default) records nothing and adds no work
        to the flush path beyond two ``is None`` checks -- scores are
        bit-identical either way.  Construct the tracer with this same
        ``clock`` so span edges share the batcher's timebase.
    """

    def __init__(self, detector: AnomalyDetector, *, max_batch: int = 32,
                 max_delay_ms: float = 5.0, max_queue: int = 256,
                 backpressure: str = "block",
                 clock: Callable[[], float] = time.perf_counter,
                 tracer=None) -> None:
        validate_batcher_knobs(max_batch, max_delay_ms, max_queue, backpressure)
        self.detector = detector
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.max_queue = max_queue
        self.backpressure = backpressure
        self.clock = clock
        self.tracer = tracer
        #: optional observer of every flushed batch (the canary shadow
        #: lane): called with the popped request list *after* scores are
        #: assigned and completions delivered.  The callee must not raise
        #: (:meth:`repro.lifecycle.CanaryController.observe_flush`
        #: guards itself); ``None`` costs one ``is None`` check per flush.
        self.shadow: Optional[Callable[[List[WindowRequest]], None]] = None
        self._pending: Deque[WindowRequest] = deque()
        self._per_session: Dict[int, int] = {}   # id(session) -> pending count
        # Telemetry: constant-memory tail-latency + occupancy histograms.
        self.queue_delay_histogram = StreamingHistogram.log_spaced(1e-6, 60.0)
        self.occupancy_histogram = StreamingHistogram.linear(
            0.5, max_batch + 0.5, max_batch)
        self.scoring_time_s = 0.0
        self.flushes = 0
        self.scored = 0
        self.dropped = 0

    # -- state ------------------------------------------------------------- #
    def pending_count(self, session: Optional[ScoringSession] = None) -> int:
        if session is None:
            return len(self._pending)
        return self._per_session.get(id(session), 0)

    def is_full(self, session: ScoringSession) -> bool:
        """Whether this session's queue is at its ``max_queue`` bound."""
        return self.pending_count(session) >= self.max_queue

    @property
    def max_delay_s(self) -> float:
        return self.max_delay_ms / 1000.0

    def due_at(self) -> Optional[float]:
        """Clock time at which the latency budget forces a flush."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at + self.max_delay_s

    def is_due(self, now: Optional[float] = None) -> bool:
        """Whether a flush is owed: batch full or oldest request over budget."""
        if len(self._pending) >= self.max_batch:
            return True
        due = self.due_at()
        if due is None:
            return False
        return (self.clock() if now is None else now) >= due

    # -- ingestion ---------------------------------------------------------- #
    def enqueue(self, request: WindowRequest) -> List[ScoredSample]:
        """Accept one submitted request, applying the backpressure policy.

        Returns the samples scored as a side effect (non-empty only under
        ``"block"``, which flushes to make room).  Raises
        :class:`QueueFullError` under ``"reject"`` when the session's queue
        is full; the refused request is discarded (its sample keeps a NaN
        score -- it already advanced the session's context window) so the
        session's completion order stays consistent.
        """
        session = request.session
        if session.detector is not self.detector:
            raise ValueError(
                "session and batcher must share one detector instance"
            )
        scored: List[ScoredSample] = []
        if self.is_full(session):
            if self.backpressure == "reject":
                session.discard(request)
                self.dropped += 1
                raise QueueFullError(
                    f"session {session.stream_id!r} has "
                    f"{self.pending_count(session)} pending windows "
                    f"(max_queue={self.max_queue})"
                )
            if self.backpressure == "drop_oldest":
                self._drop_oldest(session)
            else:  # block: make room by scoring now
                while self.is_full(session):
                    scored.extend(self.flush())
        request.enqueued_at = self.clock()
        self._pending.append(request)
        self._per_session[id(session)] = self.pending_count(session) + 1
        return scored

    def _drop_oldest(self, session: ScoringSession) -> None:
        for position, request in enumerate(self._pending):
            if request.session is session:
                del self._pending[position]
                self._release_slot(session)
                session.discard(request)
                self.dropped += 1
                return
        raise AssertionError("is_full() promised a pending request")  # pragma: no cover

    def _release_slot(self, session: ScoringSession) -> None:
        """Decrement a session's pending count, evicting emptied entries
        (long-running services see millions of short-lived sessions)."""
        key = id(session)
        remaining = self._per_session[key] - 1
        if remaining:
            self._per_session[key] = remaining
        else:
            del self._per_session[key]

    # -- flushing ----------------------------------------------------------- #
    def flush(self) -> List[ScoredSample]:
        """Score up to ``max_batch`` pending requests in one batched call.

        Requests that arrive pre-scored by their session's incremental lane
        (:attr:`~repro.serve.session.WindowRequest.score`) are completed
        without entering the batched call -- the gemm covers only the rows
        that still need scoring, and is skipped entirely when none do.
        Completion stays in FIFO pop order across both kinds, so
        per-session ordering is unchanged.
        """
        if not self._pending:
            return []
        take = min(len(self._pending), self.max_batch)
        batch: List[WindowRequest] = []
        unscored: List[WindowRequest] = []
        for _ in range(take):
            request = self._pending.popleft()
            self._release_slot(request.session)
            batch.append(request)
            if request.score is None:
                unscored.append(request)
        # Pre-scored rows paid their scoring cost at submit time (unscored
        # ones still carry 0.0); account it so scoring_time_s keeps meaning
        # "time spent producing scores".
        inline_time = sum(request.score_latency_s for request in batch)
        start = self.clock()
        if unscored:
            windows = np.stack([request.context for request in unscored])
            targets = np.stack([request.target for request in unscored])
            try:
                scores = self.detector.score_windows_batch(windows, targets)
            except Exception:
                # A poisoned batch (e.g. a mis-shaped sample) must not wedge
                # its sessions: the popped requests are discarded so
                # completion order stays consistent, then the error
                # propagates.
                for request in batch:
                    request.session.discard(request)
                    self.dropped += 1
                raise
        end = self.clock()
        elapsed = end - start
        if unscored:
            per_row = elapsed / len(unscored)
            for row, request in enumerate(unscored):
                request.score = float(scores[row])
                request.score_latency_s = per_row
        self.flushes += 1
        self.scored += take
        self.scoring_time_s += elapsed + inline_time
        self.occupancy_histogram.add(take)
        if self.tracer is not None:
            self.tracer.span("flush", "batcher", start, end,
                             batch=take, prescored=take - len(unscored),
                             pending=len(self._pending))
        results: List[ScoredSample] = []
        for request in batch:
            delay = end - request.enqueued_at
            self.queue_delay_histogram.add(delay)
            if self.tracer is not None:
                self.tracer.span("enqueue_to_score",
                                 request.session.stream_id,
                                 request.enqueued_at, end,
                                 index=request.index)
            results.append(request.session.complete(
                request, request.score,
                latency_s=request.score_latency_s, queue_delay_s=delay,
            ))
        if self.shadow is not None:
            self.shadow(batch)
        return results

    def record_completed(self, samples: Sequence[ScoredSample]) -> None:
        """Count samples a session completed at submit as one flush.

        They add to ``flushes``, ``scored``, ``scoring_time_s`` and the
        occupancy histogram -- so ``scored + dropped + pending`` still
        covers every submitted window -- but not to the queue-delay
        histogram: they never waited.
        """
        self.flushes += 1
        self.scored += len(samples)
        self.scoring_time_s += sum(sample.latency_s for sample in samples)
        self.occupancy_histogram.add(len(samples))

    def flush_due(self, now: Optional[float] = None) -> List[ScoredSample]:
        """Flush only if the batch is full or the latency budget expired."""
        if not self.is_due(now):
            return []
        return self.flush()

    def drain(self, session: Optional[ScoringSession] = None) -> List[ScoredSample]:
        """Flush until nothing is pending (for ``session``, or at all).

        Draining one session still scores full batches -- requests of other
        sessions that share those batches complete too (their results are
        included in the return value).
        """
        results: List[ScoredSample] = []
        while self._pending if session is None else self.pending_count(session):
            results.extend(self.flush())
        return results

    # -- reporting ---------------------------------------------------------- #
    def stats(self) -> Dict[str, float]:
        return {
            "flushes": float(self.flushes),
            "scored": float(self.scored),
            "dropped": float(self.dropped),
            "pending": float(len(self._pending)),
            "scoring_time_s": self.scoring_time_s,
            "mean_batch_size": self.scored / self.flushes if self.flushes
            else 0.0,
            "queue_delay_p50_s": self.queue_delay_histogram.p50,
            "queue_delay_p95_s": self.queue_delay_histogram.p95,
            "queue_delay_p99_s": self.queue_delay_histogram.p99,
            "occupancy_p50": self.occupancy_histogram.p50,
        }
