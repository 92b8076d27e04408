"""Per-stream scoring sessions: the push-based unit of the serving API.

A :class:`ScoringSession` owns everything one stream needs to be scored and
alarmed on -- its rolling context window, its (optionally scaler-normalised)
input path, its resolved decision threshold and its independent
drift-adaptation lane -- but deliberately not the scoring schedule.

One body ingests samples: :meth:`ScoringSession.submit_many` takes a
``(samples, channels)`` block with one scaler call, one ring write and --
when the detector offers an O(1)-per-sample *incremental lane*
(:meth:`~repro.core.detector.AnomalyDetector.incremental_scorer` -- VARADE,
float and int8) -- one scorer ``push_many``.  Each row past the window fill
and within the ``max_samples`` budget is emitted, in one of two ways:

* completed on the spot (threshold, adaptation, :class:`ScoredSample`) when
  the lane scored it, the caller allows it (``immediate``) and nothing of
  the session's is still in flight;
* otherwise as a :class:`WindowRequest` -- a materialised ``(window,
  target)`` pair, pre-scored where the lane already knows the score -- that
  a scheduler scores and hands back to :meth:`ScoringSession.complete`.
  ``complete`` applies the threshold in effect *before* the sample was
  observed (classify, then learn -- the same semantics as
  :class:`repro.edge.StreamingRuntime`) and feeds the adaptation lane.

:meth:`ScoringSession.submit` and :meth:`ScoringSession.push` are its
one-row spellings.  ``submit`` hands every request to its caller, which is
how a :class:`~repro.serve.batcher.MicroBatcher` coalesces requests from
many sessions into one
:meth:`~repro.core.detector.AnomalyDetector.score_windows_batch` call.
``push`` is the inline edge loop: the sample completes at submit, or
``push`` completes its request itself -- with the pre-scored value, else
by scoring a one-row batch.  Incremental scores are bit-identical to
``score_windows_batch`` (the :mod:`repro.nn.fastpath` parity contract) and
batched scoring is batch-invariant, so every spelling and every block
partition gives the sequential single-stream path's scores, alarms and
adaptation events.

Requests must be completed in submission order per session (enforced), so
threshold adaptation always observes scores in stream order regardless of
how the scheduler interleaves sessions.
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


def _one_row(values: Union[np.ndarray, list]) -> np.ndarray:
    """One sample as the ``(1, channels)`` block the session ingests."""
    return np.asarray(values, dtype=np.float64).reshape(1, -1)


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

    Emitted by :meth:`ScoringSession.submit_many` (and its one-row spelling
    :meth:`ScoringSession.submit`); scored by whoever schedules it
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
    #: wall clock spent scoring this sample: its share of the incremental
    #: scorer's push, or (set by the batcher) of the batched call
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
        Score each block :meth:`submit_many` ingests with one ``push_many``
        of the detector's O(1)-per-sample incremental scorer
        (:meth:`~repro.core.detector.AnomalyDetector.incremental_scorer`).
        A sample so scored completes at submit, or rides its
        :class:`WindowRequest` pre-scored so schedulers skip the batched
        call for it.  Incremental scores are bit-identical to the batch
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
    def incremental_active(self) -> bool:
        """Whether the O(1)-per-sample incremental lane scores this stream."""
        return self._scorer is not None

    # -- ingestion: one body, two one-row spellings ------------------------ #
    def submit(self, values: Union[np.ndarray, list]) -> Optional[WindowRequest]:
        """Ingest one sample; return its scorable request once the window fills.

        The one-row spelling of :meth:`submit_many` with ``immediate=False``:
        the request always goes to the caller, pre-scored when the
        incremental lane knows the score.  Returns ``None`` during the
        warm-up prefix (and once the ``max_samples`` budget is spent) --
        exactly the samples the sequential runtime leaves NaN.
        """
        _, queued = self.submit_many(_one_row(values), immediate=False)
        return queued[0] if queued else None

    def submit_many(self, block: np.ndarray, *, immediate: bool = True
                    ) -> Tuple[List[ScoredSample], List[WindowRequest]]:
        """Ingest a ``(samples, channels)`` block; return what it produced.

        Returns ``(completed, queued)``.  ``completed`` holds the samples
        whose incremental score came back from the block and were completed
        at once (threshold, adaptation) -- only when ``immediate`` is set
        and none of the session's earlier requests is still outstanding, so
        completion order holds.  ``queued`` holds the requests a scheduler
        must complete, in order (pre-scored where the lane already knows
        the score).  A block is all one or all the other.  Scores, alarms
        and adaptation are bit-identical to submitting the rows one at a
        time.
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
        base = self._pushed
        self._pushed += count
        if self.record:
            self._scores.extend([float("nan")] * count)
            self._alarms.extend([0] * count)
            self._trace.extend([float("nan")] * count)

        scorer = self._scorer
        scores = None
        latency = 0.0
        unscored = count                # leading rows without a lane score
        if scorer is not None:
            # The scorer sees every row (it mirrors the ring's state),
            # whether or not a request is emitted for it.
            start = time.perf_counter()
            try:
                scores = scorer.push_many(block)
            except ValueError:
                # A shape the plan cannot ingest: disable the incremental
                # lane and let the batch path report the problem on its own
                # terms (identical behaviour to a non-incremental session).
                self._scorer = None
                if self._tracer is not None:
                    self._tracer.instant("incremental_lane_disabled",
                                         self.stream_id, index=base)
            else:
                end = time.perf_counter()
                latency = (end - start) / count
                # The scorer scores from the window-th row it has seen since
                # it started (or restarted after a weight swap); the rows
                # before came back NaN.  Read after the push, so the hot
                # path pays no second staleness check: rows_within asks
                # warmup_left before it, and the two agree.
                unscored = min(count, max(0, count + self.detector.window
                                          - 1 - scorer.samples_seen))
        first, last, queue = self._plan(count, unscored, immediate)
        if scores is not None and self._tracer is not None:
            self._tracer.span("score_block", self.stream_id, start, end,
                              index=base, rows=count,
                              completed=0 if queue else last - first)

        completed: List[ScoredSample] = []
        queued: List[WindowRequest] = []
        if queue and first < last:
            # Contexts are views into one (retained + block) history array.
            history = self._history(block)
            stop = history.shape[0] - count \
                + int(self.detector.scores_current_sample)
            window = self.detector.window
            for row in range(first, last):
                request = WindowRequest(
                    session=self, seq=self._submitted, index=base + row,
                    context=history[stop + row - window:stop + row],
                    target=block[row])
                if scores is not None and row >= unscored:
                    request.score = float(scores[row])
                    request.score_latency_s = latency
                self._submitted += 1
                queued.append(request)
        elif first < last:
            done = last - first
            self._submitted += done
            self._next_complete += done
            self._completed += done
            # A plain loop: a comprehension's own frame costs about 2 % of a
            # one-row push.
            for row in range(first, last):
                completed.append(self._decide(base + row, block[row],
                                              float(scores[row]), latency,
                                              None))
        self._write_ring(block)
        return completed, queued

    def rows_within(self, count: int, room: int, *,
                    immediate: bool = True) -> int:
        """How many leading rows of a ``count``-row block
        :meth:`submit_many` can take while queueing at most ``room``
        requests (all ``count`` when the block would complete at once)."""
        scorer = self._scorer
        unscored = count if scorer is None \
            else min(count, scorer.warmup_left)
        first, last, queue = self._plan(count, unscored, immediate)
        if last - first <= room or not queue:
            return count
        return first + room

    def _plan(self, count: int, unscored: int, immediate: bool
              ) -> Tuple[int, int, bool]:
        """How the next ``count``-row block goes, given that its first
        ``unscored`` rows get no incremental score: ``(first, last,
        queue)``.  Rows ``[first, last)`` emit a request (past the window
        fill, within the ``max_samples`` budget); ``queue`` says whether
        they go through a scheduler rather than complete at submit."""
        detector = self.detector
        first = min(count, max(0, detector.window - self._filled
                               - detector.scores_current_sample))
        last = count if self.max_samples is None else min(
            count, first + max(0, self.max_samples - self._submitted))
        queue = not (immediate and first >= unscored and
                     self._submitted == self._completed + self._dropped)
        return first, last, queue

    def _write_ring(self, block: np.ndarray) -> None:
        """Write a block into the ring in at most two slice copies."""
        ring = self._ring
        window = ring.shape[0]
        count = block.shape[0]
        rows = block[-window:]
        kept = rows.shape[0]
        start = (self._cursor + count - kept) % window
        split = window - start
        if kept <= split:
            ring[start:start + kept] = rows
        else:
            ring[start:] = rows[:split]
            ring[:kept - split] = rows[split:]
        self._cursor = (self._cursor + count) % window
        self._filled += count

    def _history(self, *tail: np.ndarray) -> np.ndarray:
        """The retained samples in push order, followed by ``tail``."""
        ring, cursor = self._ring, self._cursor
        if self._filled < ring.shape[0]:
            # Never wrapped: rows [0, filled) are already in push order.
            return np.concatenate((ring[:self._filled], *tail))
        return np.concatenate((ring[cursor:], ring[:cursor], *tail))

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

        The one-row spelling of :meth:`submit_many`: the sample completes
        at submit when the incremental lane scored it.  One that comes back
        queued is completed here -- with its pre-scored value, else by
        scoring a one-row batch through the same ``score_windows_batch``
        contract the micro-batcher uses -- so inline and batched serving
        are bit-identical either way.  Returns the :class:`Alarm` (a
        :class:`ScoredSample` with ``alarm=True``) when this sample crossed
        the threshold, ``None`` otherwise -- including the warm-up prefix
        and thresholdless sessions.
        """
        completed, queued = self.submit_many(_one_row(values))
        if queued:
            request = queued[0]
            score, latency = request.score, request.score_latency_s
            if score is None:
                start = time.perf_counter()
                score = float(self.detector.score_windows_batch(
                    request.context[None, ...], request.target[None, :])[0])
                latency = time.perf_counter() - start
            sample = self.complete(request, score, latency_s=latency)
        elif completed:
            sample = completed[0]
        else:
            return None
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
        """Recreate the incremental scorer by replaying the ring history
        (one ``push_many``: the same bits as pushing it row by row)."""
        scorer = self.detector.incremental_scorer()
        if scorer is None or self._ring is None:
            return scorer
        try:
            scorer.push_many(self._history())
        except ValueError:
            # Mirrors the submit_many() fallback: a shape the incremental
            # plan rejects keeps the session on the (bit-identical) batch
            # path instead of failing the import.
            return None
        return scorer

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
