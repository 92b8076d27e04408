"""Asyncio front door: dynamic sessions, micro-batched scoring, alarm stream.

:class:`AnomalyService` is the push-based serving API VARADE's real-time
pitch implies: producers ``await service.push_block(stream_id, block)``
(or ``push`` for one sample) at whatever unaligned, bursty rates their
sensors deliver, and consumers ``async for alarm in service.alarms()``.
A block whose scores the session's incremental lane produces is completed
and alarmed before ``push_block`` returns; everything else (baselines,
``incremental=False``, a lane warming up) is coalesced by a single
scheduler task into micro-batches under a latency budget.  Sessions are
created and closed dynamically -- there is no fixed fleet at construction.

The service is a thin asyncio shell over the deterministic synchronous
core (:class:`~repro.serve.session.ScoringSession` +
:class:`~repro.serve.batcher.MicroBatcher`), so its scores, alarms and
adaptation events are bit-identical to the sequential
:class:`repro.edge.StreamingRuntime` path -- the parity suite in
``tests/test_serve/`` holds it to that.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from dataclasses import dataclass, field, fields, replace
from typing import AsyncIterator, Dict, List, Optional, Sequence

import numpy as np

from ..core.calibration import CalibratedThreshold
from ..core.detector import AnomalyDetector
from ..drift.policy import AdaptationPolicy
from ..edge.monitor import StreamingHistogram
from ..obs import Observability
from .batcher import MicroBatcher, QueueFullError, validate_batcher_knobs
from .session import Alarm, ScoredSample, ScoringSession, SessionClosedError

__all__ = ["ServiceConfig", "ServiceStats", "AnomalyService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`AnomalyService` (see ``spec.service``).

    ``max_batch`` / ``max_delay_ms`` / ``max_queue`` / ``backpressure``
    configure the micro-batcher (:mod:`repro.serve.batcher` documents the
    backpressure trade-offs).  ``event_buffer`` bounds each subscriber's
    event queue -- a slow consumer loses its *oldest* undelivered events
    rather than stalling scoring.  ``record_sessions`` keeps per-sample
    traces on every session (parity tests and bounded replays); leave it
    off for unbounded serving.  ``apply_scaler`` normalises pushed samples
    with the detector's carried training scaler, for producers that push
    raw sensor values.  ``incremental`` lets sessions score each sample
    with the detector's O(1)-per-sample incremental scorer as it arrives
    (bit-identical to the batched call, so purely a latency/throughput
    knob); detectors without an incremental path fall back to batch
    scoring regardless.

    ``observability`` builds a :class:`repro.obs.Observability` for the
    service: a Prometheus-renderable metrics registry (the ``metrics``
    wire op, :meth:`AnomalyService.metrics_text`) plus, when
    ``trace_events > 0``, a bounded ring of Chrome-trace events capturing
    flush spans, enqueue-to-score latencies, incremental-lane engagement
    and its ``score_block`` spans, and drift adaptations (the ``trace`` op,
    :meth:`AnomalyService.trace_export`).  Off by default: the disabled
    path runs the exact pre-observability instructions, scores
    bit-identical.  ``trace_events`` is the ring capacity -- the *oldest*
    events are evicted beyond it, so a dump always shows the most recent
    activity window.

    >>> ServiceConfig(observability=True, trace_events=1024).trace_events
    1024
    >>> ServiceConfig(trace_events=-1)
    Traceback (most recent call last):
        ...
    ValueError: trace_events must be non-negative
    """

    max_batch: int = 32
    max_delay_ms: float = 5.0
    max_queue: int = 256
    backpressure: str = "block"
    event_buffer: int = 1024
    record_sessions: bool = False
    apply_scaler: bool = False
    incremental: bool = True
    observability: bool = False
    trace_events: int = 4096

    def __post_init__(self) -> None:
        validate_batcher_knobs(self.max_batch, self.max_delay_ms,
                               self.max_queue, self.backpressure)
        if self.event_buffer < 1:
            raise ValueError("event_buffer must be at least 1")
        if self.trace_events < 0:
            raise ValueError("trace_events must be non-negative")


@dataclass
class ServiceStats:
    """Aggregate telemetry of one service (histograms, not traces).

    ``flushes`` counts scoring completions: batcher flushes plus blocks
    completed at submit; ``queue_delay_histogram`` covers queued windows
    only.
    """

    sessions_opened: int
    sessions_closed: int
    live_sessions: int
    samples_pushed: int
    samples_scored: int
    samples_dropped: int
    flushes: int
    scoring_time_s: float
    queue_delay_histogram: StreamingHistogram = field(repr=False)
    occupancy_histogram: StreamingHistogram = field(repr=False)
    alarms_total: int = 0
    sessions_exported: int = 0    #: sessions handed off to another worker
    sessions_imported: int = 0    #: sessions received from another worker

    @property
    def queue_delay_p99_s(self) -> float:
        return self.queue_delay_histogram.p99

    @property
    def mean_batch_size(self) -> float:
        return self.samples_scored / self.flushes if self.flushes else 0.0

    def to_dict(self) -> dict:
        """A JSON-safe snapshot (histograms via ``to_state``).

        This is the per-service schema of the ``snapshot`` wire op;
        :meth:`repro.cluster.ClusterStats.from_snapshots` merges a fleet
        of them back into one :class:`ServiceStats` via :meth:`merged`.
        Counters come first, then histograms (a stable sort keeps field
        order within each), which is the wire schema's key order.
        """
        values = [(spec.name, getattr(self, spec.name))
                  for spec in fields(self)]
        values.sort(key=lambda item: isinstance(item[1], StreamingHistogram))
        return {name: value.to_state()
                if isinstance(value, StreamingHistogram) else value
                for name, value in values}

    @classmethod
    def merged(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """The exact aggregate of several services' stats: counters sum,
        histograms merge bin-by-bin (so the p99 is the combined
        distribution's, not an average of p99s)."""
        if not parts:
            raise ValueError("cannot merge an empty list of stats")
        totals = {}
        for spec in fields(cls):
            values = [getattr(part, spec.name) for part in parts]
            if isinstance(values[0], StreamingHistogram):
                total = StreamingHistogram.from_state(values[0].to_state())
                for other in values[1:]:
                    total.merge(other)
            else:
                total = sum(values)
            totals[spec.name] = total
        return cls(**totals)

    @classmethod
    def from_dict(cls, state: dict) -> "ServiceStats":
        """Invert :meth:`to_dict` (histogram states are the dict values)."""
        return cls(**{
            spec.name: StreamingHistogram.from_state(state[spec.name])
            if isinstance(state[spec.name], dict) else state[spec.name]
            for spec in fields(cls)})


class _Subscriber:
    """One consumer of the event stream (optionally alarms only)."""

    def __init__(self, buffer: int, alarms_only: bool) -> None:
        self.queue: "asyncio.Queue[Optional[ScoredSample]]" = \
            asyncio.Queue(maxsize=buffer)
        self.alarms_only = alarms_only

    def offer(self, sample: ScoredSample) -> None:
        if self.alarms_only and not sample.alarm:
            return
        while True:
            try:
                self.queue.put_nowait(sample)
                return
            except asyncio.QueueFull:
                # Slow consumer: shed its oldest undelivered event instead
                # of stalling the scoring loop.
                try:
                    self.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - tiny race-free
                    pass

    def finish(self) -> None:
        while True:
            try:
                self.queue.put_nowait(None)
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover
                    pass


class AnomalyService:
    """Session-based anomaly scoring service with micro-batched inference.

    Usage::

        service = AnomalyService(detector, config=ServiceConfig(max_batch=64))
        await service.start()
        await service.open_session("cell-7")
        ...
        await service.push("cell-7", sample)        # backpressure-aware
        await service.push_block("cell-7", block)   # (samples, channels)
        async for alarm in service.alarms():        # ScoredSample, alarm=True
            ...
        await service.close_session("cell-7")       # drains, then closes
        await service.stop()

    ``push``/``push_block`` auto-open unknown sessions by default, so a producer can
    stream without a handshake; pass ``auto_open=False`` to require an
    explicit :meth:`open_session`.  All sessions share one detector and
    one micro-batcher; each gets its own independent threshold/adaptation
    lane.
    """

    def __init__(self, detector: AnomalyDetector, *,
                 config: Optional[ServiceConfig] = None,
                 threshold: Optional[CalibratedThreshold] = None,
                 adaptation: Optional[AdaptationPolicy] = None,
                 auto_open: bool = True,
                 alarm_sinks: Sequence = (),
                 fingerprint: Optional[str] = None) -> None:
        self.detector = detector
        self.config = config if config is not None else ServiceConfig()
        self.threshold = threshold
        self.adaptation = adaptation
        self.auto_open = auto_open
        #: fingerprint of the artifact ``detector`` was loaded from
        #: (``None`` for ad-hoc detectors).  Stamped on emitted alarms,
        #: exposed on ``/healthz`` + the ``repro_service_artifact_info``
        #: gauge, and updated by :meth:`swap_detector`.
        self.artifact_fingerprint = fingerprint
        #: the artifact pinned for instant rollback (set by
        #: :meth:`swap_detector`; consumed by :meth:`rollback`)
        self.previous_detector: Optional[AnomalyDetector] = None
        self.previous_fingerprint: Optional[str] = None
        #: structured alarm destinations (:mod:`repro.obs.alarms`), fed
        #: every alarming sample beside the wire subscribers.  The caller
        #: owns their lifecycle (``close()`` them after :meth:`stop`); a
        #: sink that raises is counted, not propagated.
        self.alarm_sinks = list(alarm_sinks)
        self._sessions: Dict[str, ScoringSession] = {}
        self._batcher: Optional[MicroBatcher] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._work: Optional[asyncio.Event] = None
        self._batch_full: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        self._subscribers: List[_Subscriber] = []
        self._running = False
        self._failure: Optional[BaseException] = None
        self._pushed = 0
        self._opened = 0
        self._closed_count = 0
        self._blocked_pushers = 0
        self._n_channels: Optional[int] = None
        self._alarms_total = 0
        self._sink_errors = 0
        self._adaptation_folded = 0   # events of already-closed sessions
        self._exported = 0            # sessions handed off (cluster rebalance)
        self._imported = 0            # sessions received from another worker
        # Model-lifecycle state (canary / hot-swap / meta-watch).
        self._canary = None           # attached lifecycle.CanaryController
        self._watcher = None          # attached lifecycle.MetaWatcher
        self._swaps_total = 0
        self._rollbacks_total = 0
        self._migrated_total = 0      # sessions migrated across swaps
        self._canary_samples_folded = 0   # counters of stopped canaries
        self._canary_alarms_folded = 0
        self._canary_errors_folded = 0
        self._watch_breaches_folded = 0   # breaches of detached watchers
        self._artifact_info = None    # labelled info gauge (observability)
        self._info_labels: Optional[dict] = None
        #: the service's :class:`repro.obs.Observability` (``None`` unless
        #: ``config.observability`` -- the no-op default).
        self.observability: Optional[Observability] = None
        if self.config.observability:
            self.observability = Observability(
                trace_capacity=self.config.trace_events,
                clock=time.perf_counter)
            self._register_metrics(self.observability)

    # -- lifecycle --------------------------------------------------------- #
    async def start(self) -> "AnomalyService":
        if self._running:
            raise RuntimeError("service already started")
        if self._failure is not None:
            raise RuntimeError(
                "service failed while scoring and cannot be restarted; "
                "create a new AnomalyService"
            ) from self._failure
        self._batcher = MicroBatcher(
            self.detector,
            max_batch=self.config.max_batch,
            max_delay_ms=self.config.max_delay_ms,
            max_queue=self.config.max_queue,
            backpressure=self.config.backpressure,
            tracer=self._tracer,
        )
        if self._canary is not None:
            # A canary attached before a (re)start keeps shadow-scoring.
            self._batcher.shadow = self._canary.observe_flush
        self._work = asyncio.Event()
        self._batch_full = asyncio.Event()
        self._space = asyncio.Event()
        self._running = True
        self._scheduler = asyncio.create_task(self._run_scheduler(),
                                              name="repro-serve-scheduler")
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop scoring; by default drain pending windows first.

        After a scoring failure (see ``_fail``) stop is still safe to call:
        it reaps the dead scheduler task and skips the drain (the batcher
        state is what the failed flush left behind).
        """
        if not self._running and self._scheduler is None:
            return
        if self._watcher is not None:
            self._watcher.disarm()
        self._running = False
        self._work.set()           # wake the scheduler so it can exit
        self._batch_full.set()
        if self._scheduler is not None:
            await self._scheduler
            self._scheduler = None
        if drain and self._batcher is not None and self._failure is None:
            try:
                self._broadcast(self._batcher.drain())
            except BaseException as error:
                # The final drain can hit the same poisoned-batch failures
                # the scheduler guards against; unwedge pushers/subscribers
                # before surfacing it.
                self._fail(error)
                raise
        self._signal_space()       # release any pusher blocked on backpressure
        for subscriber in self._subscribers:
            subscriber.finish()
        self._subscribers = []

    async def __aenter__(self) -> "AnomalyService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- sessions ---------------------------------------------------------- #
    @property
    def sessions(self) -> Dict[str, ScoringSession]:
        """Read-only view of the live sessions by stream id."""
        return dict(self._sessions)

    def session(self, stream_id: str) -> ScoringSession:
        try:
            return self._sessions[stream_id]
        except KeyError:
            raise KeyError(f"no live session {stream_id!r}") from None

    async def open_session(self, stream_id: str, *,
                           max_samples: Optional[int] = None,
                           record: Optional[bool] = None) -> ScoringSession:
        """Create a new per-stream session (dynamic -- no fixed fleet)."""
        self._require_running()
        stream_id = str(stream_id)
        if stream_id in self._sessions:
            raise ValueError(f"session {stream_id!r} is already open")
        scaler = getattr(self.detector, "scaler", None) \
            if self.config.apply_scaler else None
        if self.config.apply_scaler and scaler is None:
            raise ValueError(
                "apply_scaler is enabled but the detector carries no scaler"
            )
        session = ScoringSession(
            self.detector, stream_id,
            threshold=self.threshold,
            adaptation=self.adaptation,
            scaler=scaler,
            max_samples=max_samples,
            record=self.config.record_sessions if record is None else record,
            incremental=self.config.incremental,
            tracer=self._tracer,
        )
        self._sessions[stream_id] = session
        self._opened += 1
        if self._tracer is not None:
            self._tracer.instant("session_open", stream_id)
        return session

    async def close_session(self, stream_id: str,
                            drain: bool = True) -> ScoringSession:
        """Close one session; its pending windows drain, others continue."""
        self._require_running()
        session = self.session(stream_id)
        session.close()
        if drain and self._batcher is not None:
            self._broadcast(self._batcher.drain(session))
            self._signal_space()
        del self._sessions[stream_id]
        self._closed_count += 1
        self._adaptation_folded += len(session.adaptation_events)
        if self._tracer is not None:
            self._tracer.instant("session_close", stream_id,
                                 scored=session.samples_scored)
        return session

    # -- handoff (cluster session re-homing) --------------------------------- #
    async def export_session(self, stream_id: str) -> bytes:
        """Drain and detach one live session, returning its state blob.

        The session is *not* closed -- it continues, bit-identically, on
        whichever service :meth:`import_session`\\ s the blob (the cluster
        router re-homes streams this way when the worker ring changes).
        Draining first preserves in-flight completion order: every window
        this service accepted is scored and broadcast here before the
        session travels.
        """
        self._require_running()
        session = self.session(stream_id)
        if self._batcher is not None:
            self._broadcast(self._batcher.drain(session))
            self._signal_space()
        state = session.export_state()
        del self._sessions[stream_id]
        self._exported += 1
        if self._tracer is not None:
            self._tracer.instant("session_export", stream_id,
                                 pushed=session.samples_pushed)
        return pickle.dumps(state, protocol=4)

    async def import_session(self, state_blob: bytes) -> ScoringSession:
        """Attach a session exported by another service over this detector.

        Only meaningful between services scoring the *same* artifact (the
        cluster keys workers by artifact fingerprint); the blob is a pickle
        produced by :meth:`export_session`, so wire servers only accept it
        on explicitly handoff-enabled (cluster-internal) endpoints.
        """
        self._require_running()
        state = pickle.loads(state_blob)
        stream_id = state["stream_id"]
        if stream_id in self._sessions:
            raise ValueError(f"session {stream_id!r} is already open")
        session = ScoringSession.from_state(self.detector, state,
                                            tracer=self._tracer)
        if session._ring is not None:
            n_channels = int(session._ring.shape[1])
            if self._n_channels is None:
                self._n_channels = n_channels
            elif n_channels != self._n_channels:
                raise ValueError(
                    f"imported session {stream_id!r} carries {n_channels} "
                    f"channels; this service scores "
                    f"{self._n_channels}-channel streams")
        self._sessions[stream_id] = session
        self._imported += 1
        return session

    # -- model lifecycle (canary / hot-swap / rollback) ---------------------- #
    @property
    def canary(self):
        """The attached :class:`repro.lifecycle.CanaryController` (or None)."""
        return self._canary

    @property
    def watcher(self):
        """The attached :class:`repro.lifecycle.MetaWatcher` (or None)."""
        return self._watcher

    def attach_canary(self, controller) -> None:
        """Start shadow-scoring ``controller``'s candidate on live traffic.

        The controller's :meth:`~repro.lifecycle.CanaryController.
        observe_flush` becomes the micro-batcher's ``shadow`` hook: every
        flushed batch is offered to it after the live scores are out, and
        the controller re-scores the shadowed slice with the candidate.
        One canary at a time -- two candidates sharing one shadow lane
        would double the overhead and muddle both verdicts.
        """
        self._require_running()
        if self._canary is not None:
            raise RuntimeError(
                "a canary is already active; stop_canary() it first")
        self._canary = controller
        self._batcher.shadow = controller.observe_flush
        if self._tracer is not None:
            self._tracer.instant(
                "canary_start", "service",
                fraction=controller.fraction,
                fingerprint=controller.fingerprint)

    def stop_canary(self):
        """Detach and return the active canary (its stats fold into ours)."""
        controller = self._canary
        if controller is None:
            raise RuntimeError("no canary is active")
        self._canary = None
        controller.stopped = True
        if self._batcher is not None:
            self._batcher.shadow = None
        self._canary_samples_folded += controller.samples
        self._canary_alarms_folded += controller.alarms
        self._canary_errors_folded += controller.errors
        if self._tracer is not None:
            self._tracer.instant("canary_stop", "service",
                                 samples=controller.samples,
                                 alarms=controller.alarms)
        return controller

    def attach_watcher(self, watcher) -> None:
        """Adopt a :class:`repro.lifecycle.MetaWatcher` for post-promotion
        health watching.  It arms automatically when :meth:`promote` swaps
        (and after a triggered rollback it stays attached, disarmed)."""
        if self._watcher is not None:
            self._watch_breaches_folded += self._watcher.breaches
            self._watcher.disarm()
        self._watcher = watcher

    def health_snapshot(self) -> dict:
        """Cumulative health counters for the meta-watcher (JSON-safe)."""
        batcher = self._batcher
        if batcher is None:
            raise RuntimeError("service was never started")
        return {
            "samples_scored": batcher.scored,
            "alarms_total": self._alarms_total,
            "sink_errors": self._sink_errors,
            "queue_delay": batcher.queue_delay_histogram.to_state(),
            "fingerprint": self.artifact_fingerprint,
        }

    async def swap_detector(self, detector: AnomalyDetector, *,
                            fingerprint: Optional[str] = None) -> int:
        """Hot-swap the serving model without dropping a sample.

        Drains every in-flight window (their scores broadcast under the
        *old* model -- the model that accepted them), migrates every live
        session onto ``detector`` via the bit-exact
        ``export_state``/``from_state`` path (PR 9's cluster re-homing
        primitive), re-resolves non-adaptive sessions' thresholds against
        the new model's calibration, and pins the old detector on
        :attr:`previous_detector` for instant :meth:`rollback`.  Runs
        atomically with respect to the event loop (no awaits inside), so
        no push can land between the drain and the swap.  Returns the
        number of migrated sessions.
        """
        from ..edge.runtime import resolve_threshold

        self._require_running()
        if detector is self.detector:
            raise ValueError("the replacement detector is already active")
        self._broadcast(self._batcher.drain())
        self._signal_space()
        adopted = resolve_threshold(self.threshold, detector)
        migrated: Dict[str, ScoringSession] = {}
        for stream_id, session in self._sessions.items():
            moved = ScoringSession.from_state(
                detector, session.export_state(), tracer=self._tracer)
            moved.adopt_threshold(adopted)
            migrated[stream_id] = moved
        self.previous_detector = self.detector
        self.previous_fingerprint = self.artifact_fingerprint
        self.detector = detector
        self.artifact_fingerprint = fingerprint
        self._batcher.detector = detector
        self._sessions = migrated
        self._swaps_total += 1
        self._migrated_total += len(migrated)
        self._set_artifact_info()
        if self._tracer is not None:
            self._tracer.instant("detector_swap", "service",
                                 migrated=len(migrated),
                                 fingerprint=fingerprint)
        return len(migrated)

    async def promote(self, *, force: bool = False) -> dict:
        """Evaluate the active canary and, gates willing, swap it live.

        Returns a JSON-safe result: ``promoted`` (bool), the evaluation
        ``report`` (:meth:`repro.lifecycle.CanaryReport.to_dict`), and on
        promotion the migrated-session count plus old/new fingerprints.
        With ``force=True`` the swap happens regardless of the verdict
        (the report still records it).  A promotion arms the attached
        meta-watcher, which will roll back automatically on regression.
        """
        self._require_running()
        if self._canary is None:
            raise RuntimeError(
                "no canary is active (attach_canary a candidate first)")
        report = self._canary.evaluate()
        result = {
            "promoted": False,
            "migrated_sessions": 0,
            "fingerprint": self.artifact_fingerprint,
            "report": report.to_dict(),
        }
        if not force and report.verdict != "promote":
            return result
        controller = self.stop_canary()
        migrated = await self.swap_detector(
            controller.candidate, fingerprint=controller.fingerprint)
        result.update(
            promoted=True,
            migrated_sessions=migrated,
            fingerprint=self.artifact_fingerprint,
            previous_fingerprint=self.previous_fingerprint,
        )
        if self._watcher is not None and not self._watcher.armed:
            self._watcher.arm(self)
        return result

    async def rollback(self, *, reason: str = "manual") -> dict:
        """Swap the pinned previous artifact back into every session."""
        self._require_running()
        if self.previous_detector is None:
            raise RuntimeError("no pinned previous detector to roll back to")
        migrated = await self.swap_detector(
            self.previous_detector, fingerprint=self.previous_fingerprint)
        self._rollbacks_total += 1
        if self._watcher is not None:
            self._watcher.disarm()
        if self._tracer is not None:
            self._tracer.instant("rollback", "service", reason=reason,
                                 fingerprint=self.artifact_fingerprint)
        return {
            "rolled_back": True,
            "reason": reason,
            "fingerprint": self.artifact_fingerprint,
            "migrated_sessions": migrated,
        }

    # -- ingestion ---------------------------------------------------------- #
    async def push(self, stream_id: str, values) -> None:
        """Ingest one sample for ``stream_id``: :meth:`push_block` of one
        row."""
        await self.push_block(
            stream_id, np.asarray(values, dtype=np.float64).reshape(1, -1))

    async def push_block(self, stream_id: str, block) -> None:
        """Ingest a ``(samples, channels)`` block for ``stream_id``.

        One session lookup, one channel check and one
        :meth:`~repro.serve.session.ScoringSession.submit_many` per block.
        Samples the session's incremental lane scores complete (and alarm)
        before this returns; the rest are queued for the scheduler.  Every
        check that can fail -- unknown stream with ``auto_open`` off,
        channel count, closed session, a full queue under ``"reject"`` --
        runs before any row is ingested, so such a failure leaves the
        stream untouched.

        Under the ``"block"`` policy a full per-session queue makes this
        coroutine wait for the scheduler to drain -- it never deadlocks,
        because the scheduler task flushes independently.  Under
        ``"reject"`` a full queue raises
        :class:`~repro.serve.batcher.QueueFullError`; when it fills part
        way through a block, the rows that fit are ingested and the error
        says how many.  Under ``"drop_oldest"`` the session's stalest
        pending window is shed.  Alarms surface on :meth:`alarms` /
        :meth:`events`, not here.
        """
        self._require_running()
        stream_id = str(stream_id)
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] == 0:
            raise ValueError("push needs a non-empty (samples, channels) block")
        rows, channels = block.shape
        if self._n_channels is not None and channels != self._n_channels:
            raise ValueError(
                f"stream {stream_id!r} pushed {channels} channels; "
                f"this service scores {self._n_channels}-channel streams"
            )
        session = self._sessions.get(stream_id)
        if session is None:
            if not self.auto_open:
                raise KeyError(
                    f"no session {stream_id!r} (auto_open is off; call "
                    f"open_session first)"
                )
            session = await self.open_session(stream_id)
        if self.config.backpressure == "block":
            while self._running and self._batcher.is_full(session):
                self._space.clear()
                # A stalled producer overrides the latency budget: flush now
                # rather than sleeping out max_delay_ms with a full queue.
                # The counter (checked synchronously by the scheduler before
                # it commits to a timed wait) closes the lost-wakeup race of
                # setting the event while the scheduler is mid-flush.
                self._blocked_pushers += 1
                try:
                    self._work.set()
                    self._batch_full.set()
                    await self._space.wait()
                finally:
                    self._blocked_pushers -= 1
            self._require_running()
            # The wait may have spanned a detector hot-swap, which migrates
            # every live session onto fresh ScoringSession objects -- re-fetch
            # so the sample lands in the live session, not the stale one.
            session = self._sessions.get(stream_id, session)
        if session.closed:
            raise SessionClosedError(f"session {stream_id!r} is closed")
        # A canary shadow-scores queued requests only (it needs contexts).
        canary = self._canary
        immediate = canary is None or canary.stopped \
            or not canary.is_shadowed(stream_id)
        batcher = self._batcher
        accepted = rows
        if self.config.backpressure == "reject":
            accepted = session.rows_within(
                rows, batcher.max_queue - batcher.pending_count(session),
                immediate=immediate)
        self._n_channels = channels
        if accepted:
            completed, queued = session.submit_many(block[:accepted],
                                                    immediate=immediate)
            self._pushed += accepted
            if completed:
                batcher.record_completed(completed)
                self._broadcast(completed)
            if queued:
                # Non-"block" policies are handled inside the core.
                for request in queued:
                    self._broadcast(batcher.enqueue(request))
                self._work.set()
                if batcher.pending_count() >= batcher.max_batch:
                    # Wake a scheduler sleeping out its latency budget: the
                    # batch is full, there is nothing left to wait for.
                    # (Idle->working transitions ride on _work; per-push
                    # wake-ups would churn a timer per sample.)
                    self._batch_full.set()
        if accepted < rows:
            raise QueueFullError(
                f"session {stream_id!r} has "
                f"{batcher.pending_count(session)} pending windows "
                f"(max_queue={batcher.max_queue}); accepted {accepted} of "
                f"{rows} rows")

    # -- event stream -------------------------------------------------------- #
    async def events(self) -> AsyncIterator[ScoredSample]:
        """Every scored sample, in scoring order, until :meth:`stop`."""
        async for sample in self._subscribe(alarms_only=False):
            yield sample

    async def alarms(self) -> AsyncIterator[Alarm]:
        """Only the samples that crossed their session's threshold."""
        async for sample in self._subscribe(alarms_only=True):
            yield sample

    async def _subscribe(self, alarms_only: bool) -> AsyncIterator[ScoredSample]:
        # A subscriber registered after stop() would wait forever: nothing
        # will ever broadcast to it or enqueue its end-of-stream marker.
        self._require_running()
        subscriber = _Subscriber(self.config.event_buffer, alarms_only)
        self._subscribers.append(subscriber)
        try:
            while True:
                sample = await subscriber.queue.get()
                if sample is None:
                    return
                yield sample
        finally:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    # -- telemetry ----------------------------------------------------------- #
    def stats(self) -> ServiceStats:
        batcher = self._batcher
        if batcher is None:
            raise RuntimeError("service was never started")
        return ServiceStats(
            sessions_opened=self._opened,
            sessions_closed=self._closed_count,
            live_sessions=len(self._sessions),
            samples_pushed=self._pushed,
            samples_scored=batcher.scored,
            samples_dropped=batcher.dropped,
            flushes=batcher.flushes,
            scoring_time_s=batcher.scoring_time_s,
            queue_delay_histogram=batcher.queue_delay_histogram,
            occupancy_histogram=batcher.occupancy_histogram,
            alarms_total=self._alarms_total,
            sessions_exported=self._exported,
            sessions_imported=self._imported,
        )

    # -- observability -------------------------------------------------------- #
    @property
    def _tracer(self):
        return self.observability.tracer \
            if self.observability is not None else None

    def _register_metrics(self, obs: Observability) -> None:
        """Register the service's metric families (all read-through).

        Every value is read at scrape time from the counters the hot path
        already maintains, so a scrape reconciles with :meth:`stats` by
        construction and an un-scraped service pays nothing.
        """
        registry = obs.registry

        def batcher_field(name: str, default: float = 0.0):
            return lambda: getattr(self._batcher, name, default) \
                if self._batcher is not None else default

        registry.counter(
            "repro_service_sessions_opened_total",
            "Sessions opened since service start.", fn=lambda: self._opened)
        registry.counter(
            "repro_service_sessions_closed_total",
            "Sessions closed since service start.",
            fn=lambda: self._closed_count)
        registry.gauge(
            "repro_service_sessions_live",
            "Currently open sessions.", fn=lambda: len(self._sessions))
        registry.gauge(
            "repro_service_sessions_incremental",
            "Open sessions scoring through the O(1) incremental lane.",
            fn=lambda: sum(1 for s in self._sessions.values()
                           if s.incremental_active))
        registry.counter(
            "repro_service_samples_pushed_total",
            "Samples ingested across all sessions.",
            fn=lambda: self._pushed)
        registry.counter(
            "repro_service_samples_scored_total",
            "Windows scored (batched + incremental).",
            fn=batcher_field("scored"))
        registry.counter(
            "repro_service_samples_dropped_total",
            "Windows shed by backpressure (drop_oldest / reject).",
            fn=batcher_field("dropped"))
        registry.counter(
            "repro_service_alarms_total",
            "Scored samples that crossed their session's threshold.",
            fn=lambda: self._alarms_total)
        registry.counter(
            "repro_service_adaptation_events_total",
            "Drift adaptations (recalibrations + refinements) across "
            "all sessions, live and closed.",
            fn=lambda: self._adaptation_folded + sum(
                len(s.adaptation_events) for s in self._sessions.values()))
        registry.counter(
            "repro_service_sessions_exported_total",
            "Sessions handed off to another worker (cluster rebalance).",
            fn=lambda: self._exported)
        registry.counter(
            "repro_service_sessions_imported_total",
            "Sessions received from another worker (cluster rebalance).",
            fn=lambda: self._imported)
        registry.counter(
            "repro_service_alarm_sink_errors_total",
            "Alarm-sink emit() calls that raised (and were swallowed).",
            fn=lambda: self._sink_errors)
        registry.gauge(
            "repro_service_blocked_pushers",
            "push() coroutines currently waiting on backpressure.",
            fn=lambda: self._blocked_pushers)
        registry.counter(
            "repro_batcher_flushes_total",
            "Micro-batch flushes plus blocks completed at submit.",
            fn=batcher_field("flushes"))
        registry.counter(
            "repro_batcher_scoring_seconds_total",
            "Wall-clock seconds spent producing scores.",
            fn=batcher_field("scoring_time_s"))
        registry.gauge(
            "repro_batcher_pending_windows",
            "Windows queued and not yet scored.",
            fn=lambda: self._batcher.pending_count()
            if self._batcher is not None else 0)
        registry.summary(
            "repro_batcher_queue_delay_seconds",
            "Enqueue-to-score latency per queued window.",
            histogram=lambda: self._batcher.queue_delay_histogram
            if self._batcher is not None
            else StreamingHistogram.log_spaced(1e-6, 60.0))
        registry.summary(
            "repro_batcher_batch_occupancy",
            "Requests coalesced per flush.",
            histogram=lambda: self._batcher.occupancy_histogram
            if self._batcher is not None
            else StreamingHistogram.linear(0.5, 1.5, 1))
        self._artifact_info = registry.gauge(
            "repro_service_artifact_info",
            "Identity of the active artifact (constant 1; a promotion "
            "moves the 1 to the new label set and zeroes the old).",
            labels=("fingerprint", "detector"))
        self._set_artifact_info()
        registry.gauge(
            "repro_lifecycle_canary_active",
            "Whether a canary is currently shadow-scoring (0/1).",
            fn=lambda: 1 if self._canary is not None else 0)
        registry.counter(
            "repro_lifecycle_canary_samples_total",
            "Windows shadow-scored by canary candidates (all canaries).",
            fn=lambda: self._canary_samples_folded
            + (self._canary.samples if self._canary is not None else 0))
        registry.counter(
            "repro_lifecycle_canary_alarms_total",
            "Would-be alarms raised by canary candidates (never emitted).",
            fn=lambda: self._canary_alarms_folded
            + (self._canary.alarms if self._canary is not None else 0))
        registry.counter(
            "repro_lifecycle_canary_errors_total",
            "Shadow-lane scoring errors (counted, swallowed).",
            fn=lambda: self._canary_errors_folded
            + (self._canary.errors if self._canary is not None else 0))
        registry.counter(
            "repro_lifecycle_swaps_total",
            "Detector hot-swaps (promotions + rollbacks).",
            fn=lambda: self._swaps_total)
        registry.counter(
            "repro_lifecycle_rollbacks_total",
            "Hot-swaps back to the pinned previous artifact.",
            fn=lambda: self._rollbacks_total)
        registry.counter(
            "repro_lifecycle_sessions_migrated_total",
            "Live sessions migrated across detector hot-swaps.",
            fn=lambda: self._migrated_total)
        registry.counter(
            "repro_lifecycle_watch_breaches_total",
            "Meta-watcher health-band breaches (all watchers).",
            fn=lambda: self._watch_breaches_folded
            + (self._watcher.breaches if self._watcher is not None else 0))
        if obs.tracer is not None:
            registry.gauge(
                "repro_trace_events_recorded",
                "Trace events currently held in the bounded ring.",
                fn=lambda: len(obs.tracer))
            registry.counter(
                "repro_trace_events_dropped_total",
                "Trace events evicted from the full ring (oldest first).",
                fn=lambda: obs.tracer.dropped)

    def _set_artifact_info(self) -> None:
        """Point the info gauge's ``1`` at the active artifact identity."""
        if self._artifact_info is None:
            return
        labels = {
            "fingerprint": self.artifact_fingerprint or "unknown",
            "detector": getattr(self.detector, "name",
                                type(self.detector).__name__),
        }
        if labels == self._info_labels:
            return
        if self._info_labels is not None:
            self._artifact_info.labels(**self._info_labels).set(0)
        self._artifact_info.labels(**labels).set(1)
        self._info_labels = labels

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service's metrics registry.

        Raises ``RuntimeError`` when observability is disabled -- the wire
        servers turn that into a structured error reply.
        """
        if self.observability is None:
            raise RuntimeError(
                "observability is disabled "
                "(enable with ServiceConfig(observability=True))"
            )
        return self.observability.registry.render()

    def trace_export(self) -> dict:
        """The bounded trace ring as a Chrome/Perfetto trace object."""
        if self.observability is None or self.observability.tracer is None:
            raise RuntimeError(
                "tracing is disabled (enable with "
                "ServiceConfig(observability=True, trace_events=N))"
            )
        return self.observability.tracer.to_chrome()

    def trace_export_json(self) -> str:
        """:meth:`trace_export` serialised as strict JSON text."""
        if self.observability is None or self.observability.tracer is None:
            raise RuntimeError(
                "tracing is disabled (enable with "
                "ServiceConfig(observability=True, trace_events=N))"
            )
        return self.observability.tracer.dumps()

    # -- internals ------------------------------------------------------------ #
    def _require_running(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                f"service failed while scoring: {self._failure!r}"
            ) from self._failure
        if not self._running:
            raise RuntimeError("service is not running (call start())")

    def _fail(self, error: BaseException) -> None:
        """A scoring error is fatal: unwedge everyone instead of hanging.

        Blocked pushers wake (and get the failure from ``_require_running``),
        subscribers see end-of-stream, and every later call raises with the
        original error attached -- a crashed flush loop must never look like
        a healthy-but-slow service.
        """
        self._failure = error
        self._running = False
        self._signal_space()
        for subscriber in self._subscribers:
            subscriber.finish()
        self._subscribers = []

    def _signal_space(self) -> None:
        self._space.set()

    def _broadcast(self, samples: List[ScoredSample]) -> None:
        if not samples:
            return
        for sample in samples:
            if sample.alarm:
                if self.artifact_fingerprint is not None \
                        and sample.fingerprint is None:
                    # Stamp the active artifact on alarms (only): after a
                    # hot-swap an operator must be able to tell which model
                    # raised what.  Non-alarm samples skip the copy.
                    sample = replace(
                        sample, fingerprint=self.artifact_fingerprint)
                self._alarms_total += 1
                for sink in self.alarm_sinks:
                    try:
                        sink.emit(sample)
                    except Exception:
                        # A broken sink (full disk, dead callback) must not
                        # take scoring down; the error counter surfaces it.
                        self._sink_errors += 1
            for subscriber in self._subscribers:
                subscriber.offer(sample)

    async def _run_scheduler(self) -> None:
        """The one flush loop: batch-full flushes now, else by the deadline."""
        try:
            await self._scheduler_loop()
        except asyncio.CancelledError:  # pragma: no cover - defensive
            raise
        except BaseException as error:
            self._fail(error)

    async def _scheduler_loop(self) -> None:
        batcher = self._batcher
        while self._running:
            if not batcher.pending_count():
                self._work.clear()
                # Nothing pending: sleep until a push signals work.
                await self._work.wait()
                continue
            if batcher.pending_count() < batcher.max_batch \
                    and not self._blocked_pushers:
                due = batcher.due_at()
                delay = max(0.0, due - batcher.clock())
                if delay > 0:
                    # Wait out the latency budget; waking per push would
                    # spend more on timer churn than on scoring, so only
                    # flush-now signals cut the wait short: a full batch, a
                    # producer blocked on backpressure, or stop().  All of
                    # them want an immediate flush, so no re-check below.
                    self._batch_full.clear()
                    try:
                        await asyncio.wait_for(self._batch_full.wait(), delay)
                    except asyncio.TimeoutError:
                        pass
            if not self._running:
                break
            self._broadcast(batcher.flush())
            self._signal_space()
            # Yield so pushers/consumers run between batches even when the
            # queue never empties.
            await asyncio.sleep(0)
