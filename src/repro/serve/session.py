"""Per-stream scoring sessions: the push-based unit of the serving API.

A :class:`ScoringSession` owns everything one stream needs to be scored and
alarmed on -- its rolling context window, its (optionally scaler-normalised)
input path, its resolved decision threshold and its independent
drift-adaptation lane -- but deliberately not the scoring schedule.  The
session is a deterministic state machine with two halves:

* :meth:`ScoringSession.submit` ingests one sample and, once the context
  window is full (and the ``max_samples`` budget allows), emits a
  :class:`WindowRequest` -- a materialised ``(window, target)`` pair ready
  to be scored by anyone;
* :meth:`ScoringSession.complete` consumes the score for a previously
  submitted request, applies the threshold in effect *before* the sample
  was observed (classify, then learn -- the same semantics as
  :class:`repro.edge.StreamingRuntime`), feeds the adaptation lane, and
  returns the :class:`ScoredSample`.

The split is what lets a :class:`~repro.serve.batcher.MicroBatcher` coalesce
requests from many sessions into one
:meth:`~repro.core.detector.AnomalyDetector.score_windows_batch` call while
every session keeps bit-identical scores, alarms and adaptation events to
the sequential single-stream path.  For callers that do not batch,
:meth:`ScoringSession.push` is the inline spelling: submit, score a
one-row batch immediately, complete -- one shared code path either way.

Requests must be completed in submission order per session (enforced), so
threshold adaptation always observes scores in stream order regardless of
how the scheduler interleaves sessions.

Sessions additionally carry an *incremental lane*: when the detector offers
an O(1)-per-sample incremental scorer
(:meth:`~repro.core.detector.AnomalyDetector.incremental_scorer` -- VARADE,
float and int8), :meth:`ScoringSession.submit` scores each sample eagerly as
it arrives and stashes the result on the emitted
:class:`WindowRequest.score`.  Schedulers (the inline :meth:`push` and the
micro-batcher alike) complete such requests without re-scoring them.
Incremental scores are bit-identical to ``score_windows_batch`` by the
:mod:`repro.nn.fastpath` parity contract, so the lane changes the serving
hot path's cost, never its results.

:meth:`ScoringSession.submit_many` is the block form the serving front door
uses: one scaler call, one ring write and one incremental ``push_many`` per
block.  Samples whose score comes back from that call are completed on the
spot -- no :class:`WindowRequest`, no scheduler -- whenever nothing of the
session's is still in flight; the rest are emitted as requests exactly as
:meth:`submit` would have emitted them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.calibration import CalibratedThreshold
from ..core.detector import AnomalyDetector
from ..drift.policy import AdaptationPolicy, AdaptationState

__all__ = ["Alarm", "ScoredSample", "WindowRequest", "ScoringSession",
           "SessionClosedError"]


class SessionClosedError(RuntimeError):
    """A sample was pushed into (or completed against) a closed session."""


@dataclass(frozen=True)
class ScoredSample:
    """One scored sample of one stream, with the decision applied to it."""

    stream_id: str
    index: int                     #: sample index within the stream
    score: float
    threshold: Optional[float]     #: threshold in effect (None = no alarms)
    alarm: bool
    #: this sample's share of the scoring call's wall clock (batch time / rows)
    latency_s: float = 0.0
    #: enqueue-to-score wall clock when a batcher scheduled the request
    #: (``None`` on the inline path)
    queue_delay_s: Optional[float] = None
    #: fingerprint of the artifact that scored this sample (stamped on
    #: alarms by services that know theirs, so post-swap alarms stay
    #: attributable to the model that raised them)
    fingerprint: Optional[str] = None


#: A :class:`ScoredSample` whose ``alarm`` flag is set -- the type
#: :meth:`ScoringSession.push` and :meth:`repro.serve.AnomalyService.alarms`
#: deliver.  Kept as an alias: an alarm *is* a scored sample, just one that
#: crossed the threshold.
Alarm = ScoredSample


@dataclass
class WindowRequest:
    """One scorable unit: a materialised context window plus its target.

    Emitted by :meth:`ScoringSession.submit`; scored by whoever schedules it
    (inline, micro-batcher, ...) and handed back to
    :meth:`ScoringSession.complete`.  ``seq`` numbers a session's requests
    in submission order; completion must follow that order.
    """

    session: "ScoringSession"
    seq: int                 #: per-session submission sequence number
    index: int               #: sample index within the stream
    context: np.ndarray      #: (window, channels), oldest first
    target: np.ndarray       #: (channels,) -- the sample being scored
    enqueued_at: float = 0.0  #: batcher clock stamp (0 until enqueued)
    #: score already computed by the session's incremental scorer (bit-
    #: identical to the batch path); schedulers must not re-score it.
    score: Optional[float] = None
    #: wall clock the incremental scorer spent on this sample's push
    score_latency_s: float = 0.0

    @property
    def stream_id(self) -> str:
        return self.session.stream_id


class ScoringSession:
    """Push-based scoring handle for one stream.

    Parameters
    ----------
    detector:
        The fitted detector serving this session.  Sessions sharing a
        :class:`~repro.serve.batcher.MicroBatcher` must share its detector.
    stream_id:
        Name used in emitted :class:`ScoredSample` events.
    threshold:
        Explicit decision threshold; ``None`` defers to the detector's own
        calibrated threshold (resolved once, at session creation), and no
        threshold at all means scores are produced but nothing alarms.
    adaptation:
        Optional :class:`~repro.drift.AdaptationPolicy`; the session mints
        its own independent :class:`~repro.drift.AdaptationState` lane, so
        drift confirmed in this stream recalibrates only this stream.
    scaler:
        Optional input scaler with a ``transform`` method, applied to every
        pushed sample before it enters the context window.  ``None`` (the
        default) scores the stream as given, exactly like the runtimes.
    max_samples:
        Budget of scored samples, matching the runtimes' ``max_samples``.
    record:
        Keep per-sample scores/alarms/latencies so :meth:`result` can build
        a :class:`~repro.edge.StreamingResult`.  Long-running services turn
        this off and rely on the event stream + histograms instead.
    incremental:
        Score each sample with the detector's O(1)-per-sample incremental
        scorer (:meth:`~repro.core.detector.AnomalyDetector.
        incremental_scorer`) at submit time, stashing the result on the
        emitted :class:`WindowRequest` so schedulers skip the batched
        call for it (or, in :meth:`submit_many`, completing it on the
        spot).  Incremental scores are bit-identical to the batch
        path, so this changes latency, never results.  Silently falls back
        to batch scoring when the detector has no incremental path (most
        baselines) or its first push rejects the stream's shape.
    tracer:
        Optional :class:`repro.obs.TraceRecorder`.  When set, the session
        records incremental-lane engagement (an ``"incremental_lane"``
        instant at open, ``"incremental_lane_disabled"`` if the lane falls
        back), one ``"score_block"`` span per :meth:`submit_many` scorer
        call and one ``"adaptation"`` instant per drift-adaptation event,
        all on the stream's own track.  ``None`` (the default) records
        nothing; scores, alarms and adaptation are bit-identical either
        way.
    """

    def __init__(self, detector: AnomalyDetector, stream_id: str = "stream-0",
                 *, threshold: Optional[CalibratedThreshold] = None,
                 adaptation: Optional[AdaptationPolicy] = None,
                 scaler: Optional[object] = None,
                 max_samples: Optional[int] = None,
                 record: bool = True,
                 incremental: bool = True,
                 tracer=None) -> None:
        from ..edge.runtime import resolve_threshold

        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be at least 1 (or None)")
        self.detector = detector
        self.stream_id = str(stream_id)
        self.scaler = scaler
        self.max_samples = max_samples
        self.record = record
        # Preallocated ring buffer (lazily sized on the first push); a plain
        # ndarray ring keeps per-sample cost in C, which matters because at
        # micro-batched scoring rates the window bookkeeping -- not the
        # model -- is the marginal cost.
        self._ring: Optional[np.ndarray] = None      # (window, n_channels)
        self._cursor = 0                             # next write slot
        self._filled = 0                             # total samples written
        self._resolved = resolve_threshold(threshold, detector)
        # Incremental hot path: window-state detectors with a causal conv
        # stack score each sample in O(layers) as it arrives; everything
        # else keeps batch scoring (incremental_scorer() returns None).
        self._scorer = None
        self._tracer = tracer
        if incremental and detector.scores_current_sample:
            self._scorer = detector.incremental_scorer()
        if self._tracer is not None and self._scorer is not None:
            self._tracer.instant("incremental_lane", self.stream_id,
                                 engaged=True)
        self._adapter: Optional[AdaptationState] = None
        if adaptation is not None:
            self._adapter = adaptation.start(self._resolved)
        self._closed = False
        self._pushed = 0           # samples ingested
        self._submitted = 0        # requests emitted (== budget consumed)
        self._next_complete = 0    # seq the next complete() must carry
        self._completed = 0
        self._dropped = 0
        self._discarded: set = set()   # dropped seqs awaiting skip-over
        # Recording state (index-aligned, NaN until scored).
        self._scores: List[float] = []
        self._alarms: List[int] = []
        self._trace: List[float] = []
        self._latencies: List[float] = []

    # -- introspection ---------------------------------------------------- #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def samples_pushed(self) -> int:
        return self._pushed

    @property
    def samples_scored(self) -> int:
        return self._completed

    @property
    def samples_dropped(self) -> int:
        """Requests discarded unscored (drop-oldest backpressure)."""
        return self._dropped

    @property
    def outstanding(self) -> int:
        """Submitted requests not yet completed or discarded."""
        return self._submitted - self._completed - self._dropped

    @property
    def threshold(self) -> Optional[CalibratedThreshold]:
        """The threshold currently in effect (adaptive lanes move it)."""
        if self._adapter is not None:
            return self._adapter.threshold
        return self._resolved

    @property
    def adaptation_events(self) -> list:
        return self._adapter.events if self._adapter is not None else []

    @property
    def adaptation_state(self) -> Optional[AdaptationState]:
        return self._adapter

    @property
    def incremental_active(self) -> bool:
        """Whether the O(1)-per-sample incremental lane scores this stream."""
        return self._scorer is not None

    # -- the submit/complete state machine -------------------------------- #
    def submit(self, values: Union[np.ndarray, list]) -> Optional[WindowRequest]:
        """Ingest one sample; return a scorable request once the window fills.

        Returns ``None`` during the warm-up prefix (and once the
        ``max_samples`` budget is spent) -- exactly the samples the
        sequential runtime leaves NaN.
        """
        if self._closed:
            raise SessionClosedError(
                f"session {self.stream_id!r} is closed"
            )
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            values = values.ravel()
        if self.scaler is not None:
            values = np.asarray(
                self.scaler.transform(values[None, :]), dtype=np.float64
            ).ravel()
        if self._ring is None:
            if values.shape[0] < 1:
                raise ValueError("samples must carry at least one channel")
            self._ring = np.empty((self.detector.window, values.shape[0]))
        elif values.shape[0] != self._ring.shape[1]:
            raise ValueError(
                f"expected {self._ring.shape[1]} channels, "
                f"got {values.shape[0]}"
            )
        index = self._pushed
        self._pushed += 1
        if self.record:
            self._scores.append(float("nan"))
            self._alarms.append(0)
            self._trace.append(float("nan"))

        scores_current = self.detector.scores_current_sample
        if scores_current:
            # Window-state detectors (VARADE, AE) include the newest sample
            # in the context they score.
            self._push_ring(values)
        score: Optional[float] = None
        score_latency = 0.0
        if self._scorer is not None:
            # The incremental scorer sees every sample (it mirrors the ring's
            # state), whether or not a request is emitted for it.
            start = time.perf_counter()
            try:
                score = self._scorer.push(values)
            except ValueError:
                # A shape the plan cannot ingest: disable the incremental
                # lane and let the batch path report the problem on its own
                # terms (identical behaviour to a non-incremental session).
                self._scorer = None
                score = None
                if self._tracer is not None:
                    self._tracer.instant("incremental_lane_disabled",
                                         self.stream_id, index=index)
            else:
                score_latency = time.perf_counter() - start
        request = None
        if self._filled >= self._ring.shape[0] and \
                (self.max_samples is None
                 or self._submitted < self.max_samples):
            request = WindowRequest(
                session=self,
                seq=self._submitted,
                index=index,
                context=self._window_array(),
                target=values,
            )
            if score is not None:
                request.score = float(score)
                request.score_latency_s = score_latency
            self._submitted += 1
        if not scores_current:
            self._push_ring(values)
        return request

    def submit_many(self, block: np.ndarray, *, immediate: bool = True
                    ) -> Tuple[List[ScoredSample], List[WindowRequest]]:
        """Ingest a ``(samples, channels)`` block; return what it produced.

        Returns ``(completed, queued)``.  ``completed`` holds the samples
        whose incremental score came back from the block and were completed
        at once (threshold, adaptation) -- only when ``immediate`` is set
        and none of the session's earlier requests is still outstanding, so
        completion order holds.  ``queued`` holds the requests a scheduler
        must complete, in order, exactly as :meth:`submit` would have
        emitted them (pre-scored where the lane already knows the score).
        A block is all one or all the other.  Scores, alarms and adaptation
        are bit-identical to submitting the rows one at a time.
        """
        if self._closed:
            raise SessionClosedError(
                f"session {self.stream_id!r} is closed"
            )
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty (samples, channels) block, "
                f"got shape {block.shape}")
        if self.scaler is not None:
            block = np.asarray(self.scaler.transform(block), dtype=np.float64)
        count, channels = block.shape
        if self._ring is None:
            if channels < 1:
                raise ValueError("samples must carry at least one channel")
            self._ring = np.empty((self.detector.window, channels))
        elif channels != self._ring.shape[1]:
            raise ValueError(
                f"expected {self._ring.shape[1]} channels, got {channels}"
            )
        first, last = self._emitted(count)
        queue = self._queues(first, immediate)
        base = self._pushed
        self._pushed += count
        if self.record:
            self._scores.extend([float("nan")] * count)
            self._alarms.extend([0] * count)
            self._trace.extend([float("nan")] * count)

        scores = None
        scored_from = count
        latency = 0.0
        if self._scorer is not None:
            scored_from = min(count, self._scorer.warmup_left)
            start = time.perf_counter()
            try:
                scores = self._scorer.push_many(block)
            except ValueError:
                # The submit()-time fallback, for the whole block.
                self._scorer = None
                queue = True
                if self._tracer is not None:
                    self._tracer.instant("incremental_lane_disabled",
                                         self.stream_id, index=base)
            else:
                end = time.perf_counter()
                latency = (end - start) / count
                if self._tracer is not None:
                    self._tracer.span("score_block", self.stream_id,
                                      start, end, index=base, rows=count,
                                      completed=0 if queue else last - first)

        completed: List[ScoredSample] = []
        queued: List[WindowRequest] = []
        if queue and first < last:
            # Contexts are views into one (retained + block) history array.
            history = np.concatenate((self._ring_history(), block))
            stop = history.shape[0] - count \
                + int(self.detector.scores_current_sample)
            window = self.detector.window
            for row in range(first, last):
                request = WindowRequest(
                    session=self, seq=self._submitted, index=base + row,
                    context=history[stop + row - window:stop + row],
                    target=block[row])
                if scores is not None and row >= scored_from:
                    request.score = float(scores[row])
                    request.score_latency_s = latency
                self._submitted += 1
                queued.append(request)
        elif first < last:
            done = last - first
            self._submitted += done
            self._next_complete += done
            self._completed += done
            completed = [self._decide(base + row, block[row],
                                      float(scores[row]), latency, None)
                         for row in range(first, last)]
        self._write_ring(block)
        return completed, queued

    def rows_within(self, count: int, room: int, *,
                    immediate: bool = True) -> int:
        """How many leading rows of a ``count``-row block
        :meth:`submit_many` can take while queueing at most ``room``
        requests (all ``count`` when the block would complete at once)."""
        first, last = self._emitted(count)
        if last - first <= room or not self._queues(first, immediate):
            return count
        return first + room

    def _emitted(self, count: int) -> Tuple[int, int]:
        """Rows ``[first, last)`` of the next ``count``-row block that emit
        a request: past the window fill, within the ``max_samples`` budget."""
        lead = int(self.detector.scores_current_sample)
        first = min(count, max(0, self.detector.window - lead - self._filled))
        if self.max_samples is None:
            return first, count
        return first, min(count, first + max(0, self.max_samples
                                             - self._submitted))

    def _queues(self, first: int, immediate: bool) -> bool:
        """Whether the next block's requests (from row ``first``) must go
        through a scheduler rather than complete at submit."""
        return not (immediate and self._scorer is not None
                    and self._submitted == self._completed + self._dropped
                    and first >= self._scorer.warmup_left)

    def _write_ring(self, block: np.ndarray) -> None:
        """Write a block into the ring in at most two slice copies."""
        window = self._ring.shape[0]
        count = block.shape[0]
        rows = block[-window:]
        start = (self._cursor + count - rows.shape[0]) % window
        split = min(rows.shape[0], window - start)
        self._ring[start:start + split] = rows[:split]
        self._ring[:rows.shape[0] - split] = rows[split:]
        self._cursor = (self._cursor + count) % window
        self._filled += count

    def _push_ring(self, values: np.ndarray) -> None:
        self._ring[self._cursor] = values
        self._cursor += 1
        if self._cursor == self._ring.shape[0]:
            self._cursor = 0
        self._filled += 1

    def _window_array(self) -> np.ndarray:
        """Materialise the full context window, oldest sample first."""
        if self._cursor == 0:
            return self._ring.copy()
        return np.concatenate((self._ring[self._cursor:],
                               self._ring[:self._cursor]))

    def complete(self, request: WindowRequest, score: float, *,
                 latency_s: float = 0.0,
                 queue_delay_s: Optional[float] = None) -> ScoredSample:
        """Apply threshold + adaptation to a scored request, in order."""
        if request.session is not self:
            raise ValueError("request belongs to a different session")
        if request.seq != self._next_complete:
            raise ValueError(
                f"session {self.stream_id!r}: completions must follow "
                f"submission order (expected seq {self._next_complete}, "
                f"got {request.seq})"
            )
        self._next_complete += 1
        self._skip_discarded()
        self._completed += 1
        return self._decide(request.index, request.target, float(score),
                            latency_s, queue_delay_s)

    def _decide(self, index: int, target: np.ndarray, score: float,
                latency_s: float,
                queue_delay_s: Optional[float]) -> ScoredSample:
        """Classify one in-order score, then learn from it (the counters
        are the caller's)."""
        threshold_value: Optional[float] = None
        alarm = False
        if self._adapter is not None:
            threshold_value = self._adapter.threshold.threshold
            alarm = score > threshold_value
            if self._tracer is not None:
                known = len(self._adapter.events)
                self._adapter.observe(index, score, raw=target)
                for event in self._adapter.events[known:]:
                    self._tracer.instant(
                        "adaptation", self.stream_id,
                        index=index, kind=event.kind,
                        trigger=event.trigger,
                        old_threshold=event.old_threshold,
                        new_threshold=event.new_threshold)
            else:
                self._adapter.observe(index, score, raw=target)
        elif self._resolved is not None:
            threshold_value = self._resolved.threshold
            alarm = score > threshold_value
        if self.record:
            self._scores[index] = score
            if threshold_value is not None:
                self._alarms[index] = int(alarm)
                self._trace[index] = threshold_value
            self._latencies.append(latency_s)
        return ScoredSample(
            stream_id=self.stream_id,
            index=index,
            score=score,
            threshold=threshold_value,
            alarm=alarm,
            latency_s=latency_s,
            queue_delay_s=queue_delay_s,
        )

    def discard(self, request: WindowRequest) -> None:
        """Drop a submitted request unscored (backpressure shedding).

        The sample keeps its NaN score (its push already advanced the
        context window, so later windows stay contiguous); completion
        bookkeeping skips the dropped sequence number so the remaining
        completions still arrive in submission order.  Both backpressure
        sheds route here: ``drop_oldest`` discards the session's stalest
        pending request, ``reject`` the refused newest one.
        """
        if request.session is not self:
            raise ValueError("request belongs to a different session")
        if request.seq < self._next_complete or request.seq in self._discarded:
            raise ValueError(
                f"session {self.stream_id!r}: request seq {request.seq} was "
                f"already completed or discarded"
            )
        self._dropped += 1
        self._discarded.add(request.seq)
        self._skip_discarded()

    def _skip_discarded(self) -> None:
        while self._next_complete in self._discarded:
            self._discarded.remove(self._next_complete)
            self._next_complete += 1

    # -- inline scoring ---------------------------------------------------- #
    def push(self, values: Union[np.ndarray, list]) -> Optional[Alarm]:
        """Ingest and score one sample inline; return the alarm it raised.

        When the session's incremental scorer already scored the sample at
        submit time, that score is used directly (it is bit-identical to
        the batch path); otherwise the inline path scores a one-row batch
        through the same ``score_windows_batch`` contract the micro-batcher
        uses, so inline and batched serving are bit-identical either way.
        Returns the :class:`Alarm` (a :class:`ScoredSample` with
        ``alarm=True``) when this sample crossed the threshold, ``None``
        otherwise -- including the warm-up prefix and thresholdless
        sessions.
        """
        request = self.submit(values)
        if request is None:
            return None
        if request.score is not None:
            sample = self.complete(request, request.score,
                                   latency_s=request.score_latency_s)
            return sample if sample.alarm else None
        start = time.perf_counter()
        score = self.detector.score_windows_batch(
            request.context[None, ...], request.target[None, :]
        )[0]
        latency = time.perf_counter() - start
        sample = self.complete(request, float(score), latency_s=latency)
        return sample if sample.alarm else None

    # -- lifecycle / results ----------------------------------------------- #
    def close(self) -> None:
        """Refuse further pushes.  Outstanding requests may still complete."""
        self._closed = True

    def adopt_threshold(self,
                        threshold: Optional[CalibratedThreshold]) -> None:
        """Adopt the threshold of a newly promoted detector.

        Called by :meth:`repro.serve.AnomalyService.swap_detector` after
        migrating the session onto a new detector: a session alarming on
        the *old* artifact's calibration would judge the new model by the
        wrong yardstick.  Sessions with a live drift-adaptation lane keep
        it untouched -- their threshold is learned per-stream state, not
        artifact calibration, and the lane already tracks the scores the
        new detector produces.
        """
        if self._adapter is not None:
            return
        self._resolved = threshold

    # -- handoff (cluster session re-homing) -------------------------------- #
    def export_state(self) -> dict:
        """Snapshot everything but the detector, for re-homing the session.

        The snapshot carries the ring buffer, the resolved threshold, the
        live adaptation lane and all counters/recording state -- enough for
        :meth:`from_state` on another process (sharing the same artifact)
        to continue the stream with bit-identical scores, alarms and
        adaptation events.  The scheduler must have drained the session
        first: requests in flight hold a reference to this object and
        cannot travel.
        """
        if self.outstanding:
            raise RuntimeError(
                f"session {self.stream_id!r} still has {self.outstanding} "
                f"outstanding requests; drain before exporting"
            )
        return {
            "version": 1,
            "stream_id": self.stream_id,
            "scaler": self.scaler,
            "max_samples": self.max_samples,
            "record": self.record,
            "ring": None if self._ring is None else self._ring.copy(),
            "cursor": self._cursor,
            "filled": self._filled,
            "resolved": self._resolved,
            "incremental": self._scorer is not None,
            "adapter": self._adapter,
            "closed": self._closed,
            "pushed": self._pushed,
            "submitted": self._submitted,
            "next_complete": self._next_complete,
            "completed": self._completed,
            "dropped": self._dropped,
            "discarded": set(self._discarded),
            "scores": list(self._scores),
            "alarms": list(self._alarms),
            "trace": list(self._trace),
            "latencies": list(self._latencies),
        }

    @classmethod
    def from_state(cls, detector: AnomalyDetector, state: dict,
                   *, tracer=None) -> "ScoringSession":
        """Rebuild a session from :meth:`export_state` on this ``detector``.

        The detector must be the same artifact the session was scored by so
        far (same weights -- the cluster keys workers by artifact
        fingerprint to guarantee it).  The incremental lane is re-warmed by
        replaying the ring contents: scores depend only on the last
        ``window`` samples (the fastpath parity contract equates them with
        batch scores over exactly that context), so the replayed scorer
        continues bit-identically.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported session state version {state.get('version')!r}")
        session = cls.__new__(cls)
        session.detector = detector
        session.stream_id = state["stream_id"]
        session.scaler = state["scaler"]
        session.max_samples = state["max_samples"]
        session.record = state["record"]
        ring = state["ring"]
        session._ring = None if ring is None \
            else np.array(ring, dtype=np.float64)
        session._cursor = state["cursor"]
        session._filled = state["filled"]
        session._resolved = state["resolved"]
        session._tracer = tracer
        session._adapter = state["adapter"]
        session._closed = state["closed"]
        session._pushed = state["pushed"]
        session._submitted = state["submitted"]
        session._next_complete = state["next_complete"]
        session._completed = state["completed"]
        session._dropped = state["dropped"]
        session._discarded = set(state["discarded"])
        session._scores = list(state["scores"])
        session._alarms = list(state["alarms"])
        session._trace = list(state["trace"])
        session._latencies = list(state["latencies"])
        session._scorer = None
        if state["incremental"] and detector.scores_current_sample:
            session._scorer = session._rewarm_scorer()
        if tracer is not None:
            tracer.instant("session_import", session.stream_id,
                           pushed=session._pushed,
                           incremental=session._scorer is not None)
        return session

    def _rewarm_scorer(self):
        """Recreate the incremental scorer by replaying the ring history."""
        scorer = self.detector.incremental_scorer()
        if scorer is None:
            return None
        try:
            for row in self._ring_history():
                scorer.push(row)
        except ValueError:
            # Mirrors the submit()-time fallback: a shape the incremental
            # plan rejects keeps the session on the (bit-identical) batch
            # path instead of failing the import.
            return None
        return scorer

    def _ring_history(self) -> np.ndarray:
        """The retained samples in push order (at most ``window`` of them)."""
        if self._ring is None:
            return np.empty((0, 0))
        if self._filled < self._ring.shape[0]:
            # Never wrapped: rows [0, filled) are already in push order.
            return self._ring[:self._filled]
        return self._window_array()

    def result(self, labels: Optional[np.ndarray] = None):
        """Build the :class:`~repro.edge.StreamingResult` of this session.

        Only available on recording sessions (``record=True``); the arrays
        cover every pushed sample, NaN where nothing was scored -- the same
        layout the sequential runtime produces.
        """
        from ..edge.runtime import StreamingResult

        if not self.record:
            raise RuntimeError(
                f"session {self.stream_id!r} was created with record=False; "
                f"consume its ScoredSample events instead"
            )
        if labels is None:
            labels = np.zeros(self._pushed, dtype=np.int64)
        else:
            labels = np.asarray(labels).copy()
            if labels.shape[0] != self._pushed:
                raise ValueError(
                    f"labels must have one entry per pushed sample "
                    f"({self._pushed}), got {labels.shape[0]}"
                )
        has_threshold = self._resolved is not None
        return StreamingResult(
            detector=self.detector.name,
            scores=np.asarray(self._scores, dtype=np.float64),
            labels=labels,
            alarms=np.asarray(self._alarms, dtype=np.int64),
            latencies_s=np.asarray(self._latencies, dtype=np.float64),
            samples_scored=self._completed,
            adaptation_events=self.adaptation_events,
            threshold_trace=np.asarray(self._trace, dtype=np.float64)
            if has_threshold else None,
        )
