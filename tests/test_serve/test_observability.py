"""Service-level observability: metrics reconciliation, tracing, sinks, wire.

The contract under test (ISSUE 8): the Prometheus page is read-through --
every value is read at scrape time from the counters the hot path already
maintains -- so the page always reconciles with ``service.stats()``; the
trace ring captures flush spans and per-session latencies as valid Chrome
trace JSON; alarm sinks observe exactly the alarmed samples; and all of it
is reachable over both wire protocols plus the plain-HTTP scrape port.
"""

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.obs import CallbackAlarmSink, ObservabilityHTTPServer
from repro.serve import (AnomalyService, AnomalyWireServer, BinaryClient,
                         ServiceConfig, TCPClient, TCPTransport)

from serve_helpers import make_stream

OBS_CONFIG = ServiceConfig(max_batch=8, max_delay_ms=2.0,
                           record_sessions=True,
                           observability=True, trace_events=2048)


def parse_page(page):
    """Prometheus text page -> {series-with-labels: float}."""
    values = {}
    for line in page.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        values[series] = float(value)
    return values


def _calibrated(detectors, train_stream, name="VARADE", quantile=0.9):
    detector = detectors[name]
    scores = detector.score_stream(train_stream).valid_scores()
    return detector, ThresholdCalibrator(quantile=quantile).calibrate(scores)


def _run_streams(service_factory, streams):
    """Push each stream through its own session; return (service result, page)."""
    async def main():
        async with service_factory() as service:
            for index, data in enumerate(streams):
                sid = f"s{index}"
                await service.open_session(sid)
                for row in data:
                    await service.push(sid, row)
                await service.close_session(sid)
            return service, service.stats(), service.metrics_text()

    return asyncio.run(main())


class TestMetricsPage:
    def test_page_reconciles_with_stats(self, detectors):
        detector = detectors["VARADE"]
        streams = [make_stream(60, seed=40)[0], make_stream(45, seed=41)[0]]
        service, stats, page = _run_streams(
            lambda: AnomalyService(detector, config=OBS_CONFIG), streams)
        values = parse_page(page)
        assert values["repro_service_sessions_opened_total"] == \
            stats.sessions_opened == 2
        assert values["repro_service_sessions_closed_total"] == \
            stats.sessions_closed == 2
        assert values["repro_service_sessions_live"] == \
            stats.live_sessions == 0
        assert values["repro_service_samples_pushed_total"] == \
            stats.samples_pushed == sum(len(s) for s in streams)
        assert values["repro_service_samples_scored_total"] == \
            stats.samples_scored > 0
        assert values["repro_service_samples_dropped_total"] == \
            stats.samples_dropped == 0
        assert values["repro_batcher_flushes_total"] == stats.flushes > 0
        assert values["repro_batcher_queue_delay_seconds_count"] == \
            stats.queue_delay_histogram.count
        assert values["repro_batcher_batch_occupancy_count"] == \
            stats.occupancy_histogram.count
        assert values["repro_trace_events_recorded"] == \
            len(service.observability.tracer)

    def test_registered_families_schema(self, detectors):
        """The metric-name schema is an operator contract; hold it pinned."""
        _, _, page = _run_streams(
            lambda: AnomalyService(detectors["VARADE"], config=OBS_CONFIG),
            [make_stream(40, seed=42)[0]])
        families = [line.split()[2:] for line in page.splitlines()
                    if line.startswith("# TYPE")]
        assert families == [
            ["repro_service_sessions_opened_total", "counter"],
            ["repro_service_sessions_closed_total", "counter"],
            ["repro_service_sessions_live", "gauge"],
            ["repro_service_sessions_incremental", "gauge"],
            ["repro_service_samples_pushed_total", "counter"],
            ["repro_service_samples_scored_total", "counter"],
            ["repro_service_samples_dropped_total", "counter"],
            ["repro_service_alarms_total", "counter"],
            ["repro_service_adaptation_events_total", "counter"],
            ["repro_service_sessions_exported_total", "counter"],
            ["repro_service_sessions_imported_total", "counter"],
            ["repro_service_alarm_sink_errors_total", "counter"],
            ["repro_service_blocked_pushers", "gauge"],
            ["repro_batcher_flushes_total", "counter"],
            ["repro_batcher_scoring_seconds_total", "counter"],
            ["repro_batcher_pending_windows", "gauge"],
            ["repro_batcher_queue_delay_seconds", "summary"],
            ["repro_batcher_batch_occupancy", "summary"],
            ["repro_service_artifact_info", "gauge"],
            ["repro_lifecycle_canary_active", "gauge"],
            ["repro_lifecycle_canary_samples_total", "counter"],
            ["repro_lifecycle_canary_alarms_total", "counter"],
            ["repro_lifecycle_canary_errors_total", "counter"],
            ["repro_lifecycle_swaps_total", "counter"],
            ["repro_lifecycle_rollbacks_total", "counter"],
            ["repro_lifecycle_sessions_migrated_total", "counter"],
            ["repro_lifecycle_watch_breaches_total", "counter"],
            ["repro_trace_events_recorded", "gauge"],
            ["repro_trace_events_dropped_total", "counter"],
        ]

    def test_disabled_by_default(self, detectors):
        service = AnomalyService(detectors["VARADE"])
        assert service.observability is None
        with pytest.raises(RuntimeError, match="observability is disabled"):
            service.metrics_text()
        with pytest.raises(RuntimeError):
            service.trace_export()

    def test_metrics_without_tracing(self, detectors):
        config = ServiceConfig(observability=True, trace_events=0)
        service = AnomalyService(detectors["VARADE"], config=config)
        assert service.observability.tracer is None
        page = service.metrics_text()
        assert "repro_trace_events_recorded" not in page
        with pytest.raises(RuntimeError, match="tracing is disabled"):
            service.trace_export()


class TestTraceExport:
    def test_trace_shows_flush_spans_and_session_latencies(self, detectors):
        """The queued (batch) lane: flush spans plus one enqueue-to-score
        span per window."""
        detector = detectors["VARADE"]
        config = dataclasses.replace(OBS_CONFIG, incremental=False)
        service, _, _ = _run_streams(
            lambda: AnomalyService(detector, config=config),
            [make_stream(50, seed=43)[0]])
        trace = service.trace_export()
        events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        names = {e["name"] for e in events}
        assert {"flush", "enqueue_to_score", "session_open",
                "session_close"} <= names
        flushes = [e for e in events if e["name"] == "flush"]
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in flushes)
        assert all("batch" in e["args"] for e in flushes)
        latencies = [e for e in events if e["name"] == "enqueue_to_score"]
        assert all(e["ph"] == "X" for e in latencies)
        # One latency span per batch-scored window.
        assert latencies, "expected per-window latency spans"
        # Strict-JSON round trip (what Perfetto requires).
        again = json.loads(service.trace_export_json())
        assert again["otherData"]["dropped"] == 0
        assert len(again["traceEvents"]) == len(trace["traceEvents"])

    def test_incremental_lane_marked(self, detectors):
        """VARADE engages the incremental lane; the trace says so."""
        service, _, _ = _run_streams(
            lambda: AnomalyService(detectors["VARADE"], config=OBS_CONFIG),
            [make_stream(40, seed=44)[0]])
        names = [e["name"] for e in service.trace_export()["traceEvents"]]
        assert "incremental_lane" in names

    def test_incremental_blocks_traced_without_queue_spans(self, detectors):
        """Samples completed at submit claim no queue wait: one
        ``score_block`` span per pushed block, no ``enqueue_to_score``."""
        data = make_stream(40, seed=44)[0]
        service, stats, _ = _run_streams(
            lambda: AnomalyService(detectors["VARADE"], config=OBS_CONFIG),
            [data])
        events = [e for e in service.trace_export()["traceEvents"]
                  if e["ph"] == "X"]
        blocks = [e for e in events if e["name"] == "score_block"]
        assert len(blocks) == len(data)          # push() is a 1-row block
        assert sum(e["args"]["completed"] for e in blocks) \
            == stats.samples_scored
        assert not [e for e in events if e["name"] == "enqueue_to_score"]
        assert stats.queue_delay_histogram.count == 0


class TestAlarmSinks:
    def test_sinks_receive_exactly_the_alarms(self, detectors, train_stream):
        detector, threshold = _calibrated(detectors, train_stream,
                                          quantile=0.7)
        data, _ = make_stream(80, seed=45, anomaly=True)
        seen = []

        async def main():
            service = AnomalyService(
                detector, threshold=threshold, config=OBS_CONFIG,
                alarm_sinks=[CallbackAlarmSink(seen.append)])
            async with service:
                await service.open_session("s0")
                for row in data:
                    await service.push("s0", row)
                session = service.session("s0")
                await service.close_session("s0")
                return session, parse_page(service.metrics_text())

        session, values = asyncio.run(main())
        result = session.result()
        expected = int(np.nansum(result.scores > threshold.threshold))
        assert expected > 0, "seeded anomalies should alarm"
        assert len(seen) == expected
        assert values["repro_service_alarms_total"] == expected
        assert values["repro_service_alarm_sink_errors_total"] == 0

    def test_failing_sink_counted_not_propagated(self, detectors,
                                                 train_stream):
        detector, threshold = _calibrated(detectors, train_stream,
                                          quantile=0.7)
        data, _ = make_stream(80, seed=46, anomaly=True)

        def boom(sample):
            raise RuntimeError("sink down")

        async def main():
            service = AnomalyService(
                detector, threshold=threshold, config=OBS_CONFIG,
                alarm_sinks=[CallbackAlarmSink(boom)])
            async with service:
                await service.open_session("s0")
                for row in data:
                    await service.push("s0", row)
                await service.close_session("s0")
                return parse_page(service.metrics_text())

        values = asyncio.run(main())
        assert values["repro_service_alarm_sink_errors_total"] == \
            values["repro_service_alarms_total"] > 0

    def test_sinks_work_without_observability(self, detectors, train_stream):
        """Sinks are part of the serving path, not the metrics switch."""
        detector, threshold = _calibrated(detectors, train_stream,
                                          quantile=0.7)
        data, _ = make_stream(80, seed=47, anomaly=True)
        seen = []

        async def main():
            service = AnomalyService(
                detector, threshold=threshold,
                alarm_sinks=[CallbackAlarmSink(seen.append)])
            async with service:
                await service.open_session("s0")
                for row in data:
                    await service.push("s0", row)
                await service.close_session("s0")

        asyncio.run(main())
        assert seen, "alarms must reach sinks with observability off"


class TestScoreParity:
    def test_observability_does_not_change_scores(self, detectors):
        """The instrumented path must stay bit-identical to the plain one."""
        detector = detectors["VARADE"]
        data, _ = make_stream(70, seed=48)

        def run(config):
            async def main():
                async with AnomalyService(detector, config=config) as service:
                    await service.open_session("s0")
                    for row in data:
                        await service.push("s0", row)
                    session = service.session("s0")
                    await service.close_session("s0")
                    return session.result().scores

            return asyncio.run(main())

        plain = run(ServiceConfig(max_batch=8, max_delay_ms=2.0,
                                  record_sessions=True))
        observed = run(OBS_CONFIG)
        np.testing.assert_array_equal(plain, observed)


class _ObsServerThread:
    """An observability-enabled wire server in a background thread."""

    def __init__(self, detector, *, config=OBS_CONFIG):
        self.service = AnomalyService(detector, config=config)
        self.server = AnomalyWireServer(self.service,
                                        TCPTransport("127.0.0.1", 0))
        self._ready = threading.Event()
        self.loop = None
        self.port = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.loop = asyncio.get_running_loop()
            ready = asyncio.Event()
            task = asyncio.create_task(self.server.serve_forever(ready=ready))
            await ready.wait()
            self.port = int(self.server.bound_address)
            self._ready.set()
            await task

        asyncio.run(main())

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(10.0), "server did not come up"
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self.server.request_stop)
        self.thread.join(10.0)
        assert not self.thread.is_alive(), "server thread did not exit"


@pytest.mark.parametrize("client_cls", [TCPClient, BinaryClient],
                         ids=["json", "binary"])
class TestWireOps:
    def test_metrics_and_trace_round_trip(self, detectors, client_cls):
        data, _ = make_stream(50, seed=49)
        with _ObsServerThread(detectors["VARADE"]) as server:
            with client_cls(port=server.port, timeout_s=10.0) as client:
                client.open("s0")
                for row in data:
                    client.push("s0", [float(v) for v in row])
                summary = client.close_stream("s0")
                page = client.metrics()
                values = parse_page(page)
                assert values["repro_service_samples_pushed_total"] == \
                    len(data)
                assert values["repro_service_samples_scored_total"] == \
                    summary["samples_scored"]
                protocol = "json" if client_cls is TCPClient else "binary"
                assert values[
                    f'repro_wire_requests_total{{protocol="{protocol}",'
                    f'op="push"}}'] == len(data)
                trace = client.trace()
                names = {e["name"] for e in trace["traceEvents"]}
                assert "score_block" in names
                assert trace["otherData"]["capacity"] == \
                    OBS_CONFIG.trace_events

    def test_request_labels_come_from_the_op_table(self, detectors,
                                                   client_cls):
        """Every op the table knows is counted under its own name (the
        lifecycle ops used to scrape as ``unknown``); only names -- or
        non-string values -- that are not in it count as ``unknown``."""
        protocol = "json" if client_cls is TCPClient else "binary"
        with _ObsServerThread(detectors["VARADE"]) as server:
            with client_cls(port=server.port, timeout_s=10.0) as client:
                for op in ("promote", "canary_status"):
                    reply = client.request({"op": op})
                    assert reply == {"ok": False, "op": op,
                                     "error": reply["error"]}
                unknown = 0
                if client_cls is TCPClient:
                    for op in ("bogus", ["not", "a", "name"], {}):
                        reply = client.request({"op": op})
                        assert not reply["ok"]
                        assert "unknown op" in reply["error"]
                        unknown += 1
                else:       # no frame can carry an op the table lacks
                    with pytest.raises(ValueError, match="unknown op"):
                        client.request({"op": "bogus"})
                values = parse_page(client.metrics())
        series = 'repro_wire_requests_total{{protocol="%s",op="{}"}}' \
            % protocol
        assert values[series.format("promote")] == 1
        assert values[series.format("canary_status")] == 1
        assert values.get(series.format("unknown"), 0) == unknown

    def test_ops_rejected_when_disabled(self, detectors, client_cls):
        config = ServiceConfig(max_batch=8, max_delay_ms=2.0)
        with _ObsServerThread(detectors["VARADE"], config=config) as server:
            with client_cls(port=server.port, timeout_s=10.0) as client:
                for op in ("metrics", "trace"):
                    reply = client.request({"op": op})
                    assert reply["ok"] is False
                    assert "disabled" in reply["error"]
                # The connection survives the structured error.
                assert client.ping()["ok"]


class TestHTTPScrape:
    def test_scrape_under_load(self, detectors):
        """Scrapes interleaved with live pushes stay consistent."""
        detector = detectors["VARADE"]
        data, _ = make_stream(120, seed=50)

        async def main():
            async with AnomalyService(detector, config=OBS_CONFIG) as service:
                httpd = ObservabilityHTTPServer(
                    metrics=service.metrics_text,
                    trace=service.trace_export_json)
                port = await httpd.start()
                try:
                    await service.open_session("s0")
                    pages = []

                    async def scrape():
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", port)
                        writer.write(b"GET /metrics HTTP/1.1\r\n"
                                     b"Host: x\r\nConnection: close\r\n\r\n")
                        await writer.drain()
                        raw = await reader.read()
                        writer.close()
                        await writer.wait_closed()
                        assert b" 200 " in raw.split(b"\r\n", 1)[0]
                        pages.append(raw.split(b"\r\n\r\n", 1)[1].decode())

                    for index, row in enumerate(data):
                        await service.push("s0", row)
                        if index % 24 == 0:
                            await scrape()
                    await service.close_session("s0")
                    await scrape()
                    return pages, service.stats()
                finally:
                    await httpd.stop()

        pages, stats = asyncio.run(main())
        counts = [parse_page(p)["repro_service_samples_pushed_total"]
                  for p in pages]
        assert counts == sorted(counts), "pushed counter must be monotonic"
        assert counts[-1] == stats.samples_pushed == len(data)
