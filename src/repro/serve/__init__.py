"""Async serving API: session-based ingestion with micro-batched scoring.

VARADE's pitch is real-time multivariate anomaly detection on the edge; a
production deployment of it is a *service*: many streams, unaligned and
bursty sample arrival, sessions that come and go, one small model that
should spend its time in batched inference rather than per-call Python
overhead.  :mod:`repro.serve` is that serving layer, built from three
pieces that compose (plus :func:`replay_streams`, the clockless offline
loop that drives the first two over recorded streams -- see
:mod:`repro.serve.replay`):

* :class:`ScoringSession` -- the per-stream handle.  Owns the stream's
  rolling context window, (optional) input scaler, resolved alarm
  threshold and an independent drift-adaptation lane.
  ``submit_many(block)`` is its one ingestion body: it completes on the
  spot what its incremental lane scores and hands the rest out as
  requests for ``complete``.  ``push(sample) -> Optional[Alarm]`` (score
  inline) and ``submit(sample)`` (hand the request to a scheduler) are its
  one-row spellings.
  Sessions are created and closed dynamically -- no fixed fleet.
* :class:`MicroBatcher` -- the latency-budgeted scheduler.  Coalesces the
  windows pending across *all* live sessions into one
  :meth:`~repro.core.detector.AnomalyDetector.score_windows_batch` call,
  flushing on ``max_batch`` or ``max_delay_ms``, with bounded per-session
  queues and an explicit backpressure policy (``"block"`` /
  ``"drop_oldest"`` / ``"reject"``).
* :class:`AnomalyService` -- the asyncio front door
  (``await service.push_block(stream_id, block)`` or
  ``await service.push(stream_id, sample)``,
  ``async for alarm in service.alarms()``), plus the networked wire layer
  so out-of-process producers can stream samples in.  Wired into the
  pipeline as :meth:`repro.pipeline.Pipeline.deploy_service` and the CLI
  as ``repro serve``.

The wire layer itself is pluggable along two orthogonal axes:

* **Protocol** -- every connection's *first byte* negotiates it, no
  handshake round trip.  Line-delimited JSON (any byte but ``0xAB``) is
  the debuggability path: one object per line, usable from ``nc``.  The
  binary protocol (:mod:`repro.serve.wire`; first byte ``0xAB``) is the
  compact ingest path: struct-packed frames, float32 sample blocks,
  many samples per PUSH frame -- at edge sample rates JSON serialization
  otherwise dominates scoring (``benchmarks/bench_wire_protocol.py``
  gates >= 4x ingest throughput binary vs JSON).
* **Transport** -- :class:`AnomalyWireServer` listens on any
  :class:`~repro.serve.transport.Transport`: TCP
  (:class:`AnomalyTCPServer`, reachable off-host) or a Unix-domain
  socket (:class:`~repro.serve.transport.UnixSocketTransport`, for
  co-located producers -- no TCP/IP stack in the path, filesystem
  permissions gate access).  ``ServiceSpec``/``repro serve`` select via
  ``transport``/``protocol``/``uds_path`` knobs.

:class:`TCPClient` (JSON) and :class:`BinaryClient` (binary, batched
pushes) share one blocking request core, surface identical reply dicts,
both accept ``uds_path=`` to connect over a Unix socket, and both raise a
descriptive :class:`ServerTimeoutError` instead of hanging on a stalled or
half-closed server (``timeout_s``, default 30s).

Everything downstream of a session is bit-identical to the sequential
:class:`repro.edge.StreamingRuntime` path -- scores, alarms, NaN warm-up
prefix and adaptation events -- because batched scoring is batch-invariant
(the PR-1 parity contract) and sessions enforce per-stream completion
order.  ``tests/test_serve/`` holds the whole stack to that;
``benchmarks/bench_service_throughput.py`` measures the micro-batching
win at 32 unaligned streams.

The stack is observable in production via :mod:`repro.obs`: with
``ServiceConfig(observability=True)`` the service exposes a Prometheus
text page (``metrics`` op on both protocols, or ``repro serve
--metrics-port``), a Chrome/Perfetto trace of flush spans and
enqueue-to-score latencies (``trace`` op / ``--trace-out``), and
structured alarm sinks (``AnomalyService(alarm_sinks=...)``).  The
default-off path stays bit-identical and within noise of the
uninstrumented build.

Operational guidance -- backpressure-policy selection, latency-budget
tuning, and every exported metric -- lives in ``docs/OPERATIONS.md``; the
package-by-package data flow is mapped in ``docs/ARCHITECTURE.md``.
"""

from . import wire
from .batcher import BACKPRESSURE_POLICIES, MicroBatcher, QueueFullError
from .replay import replay_streams
from .service import AnomalyService, ServiceConfig, ServiceStats
from .session import (Alarm, ScoredSample, ScoringSession, SessionClosedError,
                      WindowRequest)
from .tcp import (PROTOCOLS, AnomalyTCPServer, AnomalyWireServer,
                  BinaryClient, ServerTimeoutError, TCPClient,
                  write_endpoint_file)
from .transport import (HAS_UNIX_SOCKETS, TCPTransport, Transport,
                        UnixSocketTransport, make_transport)

__all__ = [
    "Alarm",
    "ScoredSample",
    "WindowRequest",
    "ScoringSession",
    "SessionClosedError",
    "BACKPRESSURE_POLICIES",
    "MicroBatcher",
    "QueueFullError",
    "replay_streams",
    "AnomalyService",
    "ServiceConfig",
    "ServiceStats",
    "AnomalyWireServer",
    "AnomalyTCPServer",
    "TCPClient",
    "BinaryClient",
    "ServerTimeoutError",
    "PROTOCOLS",
    "Transport",
    "TCPTransport",
    "UnixSocketTransport",
    "make_transport",
    "HAS_UNIX_SOCKETS",
    "write_endpoint_file",
    "wire",
]
