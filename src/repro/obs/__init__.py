"""Production observability: metrics, traces, and alarm sinks.

``repro.obs`` is the layer that explains the serving stack from the
outside.  It is deliberately dependency-free (stdlib + numpy via
:class:`repro.edge.StreamingHistogram`) and deliberately cheap: metrics
read through to counters the hot path already maintains, traces are
O(1) appends into a bounded ring, and everything defaults to *off* so a
service without observability runs the exact same instructions it did
before this package existed.

The pieces:

- :mod:`repro.obs.metrics` — counter/gauge/summary registry with
  Prometheus text exposition (scraped via the ``metrics`` wire op or
  ``repro serve --metrics-port``).
- :mod:`repro.obs.trace` — bounded-ring Chrome/Perfetto trace recorder
  (dumped via the ``trace`` wire op, ``GET /trace``, or
  ``repro serve --trace-out``).
- :mod:`repro.obs.alarms` — JSONL / callback / fan-out alarm sinks,
  wired beside the TCP alarm subscriber.
- :mod:`repro.obs.httpd` — minimal asyncio HTTP endpoint serving
  ``/metrics`` and ``/trace``.

:class:`Observability` bundles one registry plus an optional tracer;
``AnomalyService`` builds one when ``ServiceConfig(observability=True)``
and threads it through the batcher, the sessions and the wire server.

>>> obs = Observability(trace_capacity=16)
>>> obs.tracer is not None
True
>>> Observability(trace_capacity=0).tracer is None
True
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.alarms import (AlarmSink, CallbackAlarmSink, FanOutAlarmSink,
                              JsonlAlarmSink, alarm_record)
from repro.obs.httpd import ObservabilityHTTPServer
from repro.obs.metrics import (Counter, Gauge, MetricFamily, MetricsRegistry,
                               Summary, merge_metrics_pages)
from repro.obs.trace import TraceRecorder

__all__ = [
    "Observability",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Summary",
    "merge_metrics_pages",
    "TraceRecorder",
    "AlarmSink",
    "JsonlAlarmSink",
    "CallbackAlarmSink",
    "FanOutAlarmSink",
    "alarm_record",
    "ObservabilityHTTPServer",
]


class Observability:
    """One metrics registry plus an optional bounded-ring tracer.

    ``trace_capacity=0`` keeps metrics but disables tracing entirely
    (``tracer is None``), which is how a long-lived deployment avoids
    even the ring's O(1)-per-event cost when nobody is capturing.
    """

    def __init__(self, *, trace_capacity: int = 4096,
                 clock=time.perf_counter) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(capacity=trace_capacity, clock=clock)
            if trace_capacity > 0 else None)
