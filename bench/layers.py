"""The traced run: per-layer metrics, measured from outside each layer.

Three sources, all in the benchmark's own files (spans *inside* the program
are a later issue):

* **micro timings** -- each layer's public entry point called in a tight loop
  (``incremental_scorer().push``, ``score_windows_batch``, ``wire.encode``,
  ``HashRing.owner`` ...);
* **a hand-cranked pipeline** -- the ``fleet_binary`` and ``fleet_batchlane``
  inputs replayed in process through the layers in the order
  ARCHITECTURE.md "Life of one pushed sample" gives, one span per call,
  written as Chrome-trace JSON (self time = span minus children);
* **served legs** -- short timed bodies against real servers, for what only
  a live server shows: queue waits, batch sizes, CPU split, hop cost,
  observability overhead, generator lateness.

Module names are the layers.  Every metric is listed in PER_LAYER with its
unit and direction; ``run()`` returns all of them for any workload.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import inputs, procs, stats, workloads
from .workloads import WORKLOADS, Workload

#: name -> (unit, better).  Ones marked "count" must repeat exactly.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "nn.fastpath.push_us": ("us", "lower"),
    "nn.fastpath.push_many64_us_per_sample": ("us", "lower"),
    "nn.fastpath.batch_us_per_row_b32": ("us", "lower"),
    "nn.fastpath.batch_us_per_row_b256": ("us", "lower"),
    "nn.fastpath.flops_per_push": ("count", "lower"),
    "nn.fastpath.bytes_per_push": ("bytes", "lower"),
    "nn.quant.push_us": ("us", "lower"),
    "nn.quant.push_many64_us_per_sample": ("us", "lower"),
    "nn.quant.batch_us_per_row_b32": ("us", "lower"),
    "nn.quant.batch_us_per_row_b256": ("us", "lower"),
    "nn.quant.parameter_bytes": ("bytes", "lower"),
    "pipeline.fit_s": ("s", "lower"),
    "pipeline.quantize_s": ("s", "lower"),
    "pipeline.package_s": ("s", "lower"),
    "serialize.load_s": ("s", "lower"),
    "serve.session.submit_us": ("us", "lower"),
    "serve.session.submit_batchlane_us": ("us", "lower"),
    "serve.session.complete_us": ("us", "lower"),
    "serve.session.state_bytes": ("bytes", "lower"),
    "serve.session.export_bytes": ("bytes", "lower"),
    "drift.observe_us": ("us", "lower"),
    "serve.batcher.enqueue_us": ("us", "lower"),
    "serve.batcher.flush_us_per_request_prescored": ("us", "lower"),
    "serve.batcher.flush_us_per_request_unscored": ("us", "lower"),
    "serve.batcher.queue_wait_p50_ms": ("ms", "lower"),
    "serve.batcher.queue_wait_p99_ms": ("ms", "lower"),
    "serve.batcher.mean_batch": ("count", "higher"),
    "serve.batcher.flushes": ("count", "lower"),
    "serve.service.push_us": ("us", "lower"),
    "serve.service.scoring_share": ("share", "higher"),
    "serve.service.samples_dropped": ("count", "lower"),
    "serve.service.alarms_total": ("count", "higher"),
    "serve.wire.encode_push_us_per_frame": ("us", "lower"),
    "serve.wire.decode_push_us_per_frame": ("us", "lower"),
    "serve.wire.encode_alarm_us": ("us", "lower"),
    "serve.wire.bytes_per_sample_binary": ("bytes", "lower"),
    "serve.wire.bytes_per_sample_json": ("bytes", "lower"),
    "serve.tcp.ping_rtt_p50_us": ("us", "lower"),
    "serve.tcp.ping_rtt_json_p50_us": ("us", "lower"),
    "serve.tcp.frames_per_s": ("1/s", "higher"),
    "cluster.ring.owner_us": ("us", "lower"),
    "cluster.router.ping_rtt_p50_us": ("us", "lower"),
    "cluster.router.hop_us": ("us", "lower"),
    "cluster.router.cpu_us_per_sample": ("us", "lower"),
    "cluster.worker.cpu_us_per_sample": ("us", "lower"),
    "cluster.stats.shard_skew": ("ratio", "lower"),
    "obs.overhead_pct": ("%", "lower"),
    "obs.metrics_render_ms": ("ms", "lower"),
    "obs.trace_events_dropped": ("count", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.alarm_rate": ("share", "lower"),
    "loadgen.cpu_share": ("share", "lower"),
    "loadgen.ack_lag_max": ("count", "lower"),
    "edge.estimator.rank_agreement": ("rho", "higher"),
}

LEG_SHARE = 1 / 6             #: a served leg's timed body, as a share of --seconds
CRANK_OPS = 500              #: PUSH frames replayed per hand-cranked lane
MAX_TRACE_EVENTS = 20000     #: spans written to the Chrome trace file


# --------------------------------------------------------------------------- #
# Micro timings
# --------------------------------------------------------------------------- #
def median_call_us(call: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``call()`` in microseconds, each call timed alone."""
    clock = time.perf_counter
    times = np.empty(repeats)
    for index in range(repeats):
        start = clock()
        call()
        times[index] = clock() - start
    return float(np.median(times)) * 1e6


def batch_inputs(stream: np.ndarray, window: int, rows: int):
    """``(windows view, targets)`` for ``rows`` consecutive windows, laid out
    as ``score_stream`` lays them out."""
    from repro.data.windowing import sliding_windows

    data = np.asarray(stream[:window + rows - 1], dtype=np.float64)
    return sliding_windows(data, window, stride=1), data[window - 1:]


def scorer_timings(detector, stream: np.ndarray) -> Dict[str, float]:
    """One detector's four scoring entry points (float *or* int8)."""
    window = detector.window
    rows = iter(stream[window:])
    scorer = detector.incremental_scorer()
    scorer.push_many(stream[:window])
    push_us = median_call_us(lambda: scorer.push(next(rows)), 1500)
    scorer = detector.incremental_scorer()
    scorer.push_many(stream[:window])
    blocks = iter(stream[window:window + 64 * 24].reshape(24, 64, -1))
    many_us = median_call_us(lambda: scorer.push_many(next(blocks)), 24) / 64
    # Each batch size is fed the layout its consumer produces: the batcher
    # stacks materialised windows (contiguous), score_stream slides a view.
    view, targets = batch_inputs(stream, window, 256)
    stacked = np.ascontiguousarray(view[:32])
    detector.score_windows_batch(view, targets)             # warm
    b32 = median_call_us(lambda: detector.score_windows_batch(
        stacked, targets[:32]), 30) / 32
    b256 = median_call_us(lambda: detector.score_windows_batch(
        view, targets), 8) / 256
    return {"push_us": push_us, "push_many64_us_per_sample": many_us,
            "batch_us_per_row_b32": b32, "batch_us_per_row_b256": b256}


def session_timings(detector, stream: np.ndarray) -> Dict[str, float]:
    """``complete()``, adaptation's share of it, and a session's footprint."""
    from repro.pipeline import AdaptationSpec
    from repro.serve import ScoringSession

    def complete_us(adaptation) -> float:
        session = ScoringSession(detector, "m", record=False,
                                 adaptation=adaptation)
        clock = time.perf_counter
        times = []
        for row in stream[:detector.window + 1500]:
            request = session.submit(row)
            if request is None:
                continue
            start = clock()
            session.complete(request, request.score)
            times.append(clock() - start)
        return float(np.median(times)) * 1e6

    plain = complete_us(None)
    adaptive = complete_us(AdaptationSpec().policy())

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    session = ScoringSession(detector, "footprint", record=False)
    for row in stream[:detector.window + 8]:
        session.push(row)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    state_bytes = sum(stat.size_diff for stat in
                      after.compare_to(before, "filename")
                      if stat.size_diff > 0)
    export_bytes = len(pickle.dumps(session.export_state(), protocol=4))
    return {"complete_us": plain, "observe_us": adaptive - plain,
            "state_bytes": float(state_bytes),
            "export_bytes": float(export_bytes)}


def service_push_us(detector, stream: np.ndarray) -> float:
    """One awaited in-process ``AnomalyService.push`` (median)."""
    from repro.serve import AnomalyService

    async def body() -> float:
        service = AnomalyService(detector)
        await service.start()
        try:
            await service.open_session("m")
            clock = time.perf_counter
            times = []
            for row in stream[:detector.window + 1500]:
                start = clock()
                await service.push("m", row)
                times.append(clock() - start)
            return float(np.median(times[detector.window:])) * 1e6
        finally:
            await service.stop()

    return asyncio.run(body())


def wire_timings(stream: np.ndarray) -> Dict[str, float]:
    from repro.serve import wire

    block = stream[:8]
    frame = wire.Push("s00", block)
    encoded = wire.encode(frame)
    alarm = wire.AlarmEvent("s00", 412, 3.1, 1.9, "0" * 16)
    json_line = (json.dumps({"op": "push", "stream": "s00",
                             "values": [float(v) for v in stream[0]]})
                 + "\n").encode("utf-8")
    return {
        "encode_push_us_per_frame": median_call_us(
            lambda: wire.encode(wire.Push("s00", block)), 2000),
        "encode_alarm_us": median_call_us(lambda: wire.encode(alarm), 2000),
        "bytes_per_sample_binary": len(encoded) / 8.0,
        "bytes_per_sample_json": float(len(json_line)),
    }


def ring_owner_us() -> float:
    from repro.cluster import HashRing

    ring = HashRing(["w0", "w1"])
    ids = iter(inputs.stream_ids(16) * 200)
    return median_call_us(lambda: ring.owner(next(ids)), 3000)


# --------------------------------------------------------------------------- #
# The hand-cranked pipeline: one span per call into a layer
# --------------------------------------------------------------------------- #
Span = Tuple[str, float, float, int, int]   #: name, start, end, parent, id


def crank_lane(detector, seed: int, incremental: bool) -> List[Span]:
    """Replay ``fleet_binary`` inputs through decode -> submit -> enqueue ->
    flush (-> complete) -> encode(AlarmEvent), recording one span per call.

    ``id`` is the sample's global sequence number (the frame's, for
    frame-level spans); ``parent`` is the index of the enclosing frame span.
    """
    from repro.serve import MicroBatcher, ScoringSession, wire

    ids = inputs.stream_ids()
    per_stream = CRANK_OPS * 8 // len(ids) + 64
    streams = inputs.make_streams(seed, len(ids), per_stream)
    schedule = inputs.burst_schedule(seed * 8, len(ids), per_stream, 8)
    frames = [(s, wire.encode(wire.Push(ids[s], streams[s][a:b])))
              for s, a, b in schedule[:CRANK_OPS]]
    batcher = MicroBatcher(detector)        # service defaults: 32 / 5 ms
    sessions = [ScoringSession(detector, stream_id, record=False,
                               incremental=incremental) for stream_id in ids]
    clock = time.perf_counter
    spans: List[Span] = []
    sample_id = 0

    def flush(parent: int) -> None:
        start = clock()
        scored = batcher.flush()
        spans.append(("serve.batcher.flush", start, clock(), parent,
                      len(scored)))
        for sample in scored:
            if sample.alarm:
                start = clock()
                wire.encode(wire.AlarmEvent(sample.stream_id, sample.index,
                                            sample.score, sample.threshold))
                spans.append(("serve.wire.encode_alarm", start, clock(),
                              parent, sample.index))

    for frame_id, (stream, data) in enumerate(frames):
        frame_span = len(spans)
        spans.append(("push_frame", clock(), 0.0, -1, frame_id))
        start = clock()
        frame, _ = wire.decode_frame(data)
        spans.append(("serve.wire.decode_frame", start, clock(), frame_span,
                      frame_id))
        session = sessions[stream]
        for row in frame.samples:
            sample_id += 1
            start = clock()
            request = session.submit(row)
            spans.append(("serve.session.submit", start, clock(), frame_span,
                          sample_id))
            if request is None:
                continue
            start = clock()
            batcher.enqueue(request)
            spans.append(("serve.batcher.enqueue", start, clock(), frame_span,
                          sample_id))
            if batcher.pending_count() >= batcher.max_batch:
                flush(frame_span)
        name, start, _, parent, span_id = spans[frame_span]
        spans[frame_span] = (name, start, clock(), parent, span_id)
    while batcher.pending_count():
        flush(-1)
    return spans


def span_medians(spans: List[Span]) -> Dict[str, float]:
    """Median duration (us) per span name; flushes are per request."""
    by_name: Dict[str, List[float]] = {}
    for name, start, end, _, span_id in spans:
        duration = (end - start) * 1e6
        if name == "serve.batcher.flush":
            duration /= max(1, span_id)
        by_name.setdefault(name, []).append(duration)
    return {name: float(np.median(values)) for name, values in by_name.items()}


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time (s) per span name: duration minus child durations."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - children[index]
    return totals


def write_chrome_trace(path: Path, lanes: Dict[str, List[Span]]) -> None:
    """Chrome-trace JSON (loads in Perfetto): one thread per lane."""
    events = []
    for tid, (lane, spans) in enumerate(lanes.items(), start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": lane}})
        origin = spans[0][1]
        for index, (name, start, end, parent, span_id) in \
                enumerate(spans[:MAX_TRACE_EVENTS]):
            events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": {"span": index, "parent": parent,
                                    "id": span_id}})
    events.insert(0, {"name": "process_name", "ph": "M", "pid": 1,
                      "args": {"name": "bench hand-cranked pipeline"}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


# --------------------------------------------------------------------------- #
# edge.estimator.rank_agreement
# --------------------------------------------------------------------------- #
def estimator_rank_agreement(stream: np.ndarray) -> Tuple[float, List[str]]:
    """Spearman rank of measured batch us/row against the analytical
    ``EdgeEstimator`` latency over window 16/64 x feature maps 8/16, float and
    int8; returns ``(rho, pairs the two rank in opposite order)``."""
    from repro.edge import EdgeEstimator, get_device

    estimator = EdgeEstimator(get_device("Jetson Xavier NX"))
    labels, measured, modelled = [], [], []
    for window in (16, 64):
        for feature_maps in (8, 16):
            pipeline, train = inputs.fit_calibrated(inputs.bench_spec(
                window, feature_maps, inputs.QUICK_TRAINING))
            pipeline.quantize(train[:200])
            windows, targets = batch_inputs(stream, window, 128)
            for precision, detector in (("float", pipeline.detector),
                                        ("int8", pipeline.quantized)):
                detector.score_windows_batch(windows, targets)      # warm
                labels.append(f"w{window}-f{feature_maps}-{precision}")
                measured.append(median_call_us(
                    lambda: detector.score_windows_batch(windows, targets),
                    6) / 128)
                modelled.append(estimator.inference_latency(
                    detector.inference_cost()))
    disagreements = [
        f"{labels[i]} vs {labels[j]}"
        for i in range(len(labels)) for j in range(i + 1, len(labels))
        if (measured[i] - measured[j]) * (modelled[i] - modelled[j]) < 0]
    return stats.spearman(measured, modelled), disagreements


# --------------------------------------------------------------------------- #
# Served legs
# --------------------------------------------------------------------------- #
def ping_rtt_us(client_factory, port: int, repeats: int = 300) -> float:
    with client_factory(port=port) as client:
        client.ping()
        return median_call_us(client.ping, repeats)


def push_rtt_us(port: int, block: np.ndarray, repeats: int = 150) -> float:
    """Median round trip of one 8-sample PUSH on an otherwise idle server."""
    from repro.serve import BinaryClient

    with BinaryClient(port=port) as client:
        client.open("probe")
        for _ in range(inputs.WINDOW // 8 + 1):
            client.push("probe", block)
        rtt = median_call_us(lambda: client.push("probe", block), repeats)
        client.close_stream("probe")
    return rtt


class Legs:
    """Servers started on demand, one per distinct configuration, shared by
    every leg that configuration can serve."""

    def __init__(self, artifacts: inputs.Artifacts, run_dir: Path, seed: int,
                 leg_seconds: float) -> None:
        self.artifacts = artifacts
        self.run_dir = run_dir
        self.seed = seed
        self.leg_seconds = leg_seconds
        self._servers: Dict[Tuple[str, Tuple[str, ...]], procs.Server] = {}
        self._detectors: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def detector(self, precision: str):
        if precision not in self._detectors:
            self._detectors[precision] = inputs.load_serving_detector(
                self.artifacts.package(precision))
        return self._detectors[precision]

    def server(self, precision: str, flags: Tuple[str, ...]) -> procs.Server:
        key = (precision, flags)
        if key not in self._servers:
            self._servers[key] = procs.Server(
                self.artifacts.workdir(precision), self.run_dir, flags).start()
        return self._servers[key]

    def body(self, workload: Workload, precision: str,
             extra_flags: Tuple[str, ...] = ()) -> workloads.Body:
        """One short timed body of ``workload`` (oracle included)."""
        server = self.server(precision, workload.flags + extra_flags)
        body = workloads.run_body(workload, server, self.detector(precision),
                                  self.seed, self.leg_seconds)
        self.attempted += body.attempted
        self.failed += body.failed
        return body

    def stop(self) -> None:
        for server in self._servers.values():
            server.stop()
        self._servers.clear()


def run(workload: Workload, seed: int, seconds: float, run_dir: Path,
        out_dir: Path, quick: bool = False) -> dict:
    """Every per-layer metric, for ``workload``'s traced run."""
    from repro.serialize import load_detector
    from repro.serve import BinaryClient, TCPClient

    metrics: Dict[str, float] = {}
    artifacts = inputs.build_artifacts(run_dir / "artifacts", quick=quick)
    metrics.update({f"pipeline.{stage}": value
                    for stage, value in artifacts.stage_s.items()})
    metrics["serialize.load_s"] = median_call_us(
        lambda: load_detector(artifacts.package("float")), 3) / 1e6
    legs = Legs(artifacts, run_dir, seed, max(0.5, seconds * LEG_SHARE))
    floating, int8 = legs.detector("float"), legs.detector("int8")
    stream = inputs.make_stream(inputs.stream_seed(seed, 0), 4096)

    # -- micro timings -------------------------------------------------------- #
    for layer, detector in (("nn.fastpath", floating), ("nn.quant", int8)):
        for name, value in scorer_timings(detector, stream).items():
            metrics[f"{layer}.{name}"] = value
    cost = floating.inference_cost()
    # Computed, not measured: the full-window cost profile_model reports (the
    # incremental plan reuses columns, so a push costs at most this).
    metrics["nn.fastpath.flops_per_push"] = float(cost.flops)
    metrics["nn.fastpath.bytes_per_push"] = float(cost.memory_traffic_bytes)
    metrics["nn.quant.parameter_bytes"] = float(
        int8.inference_cost().parameter_bytes)
    session = session_timings(floating, stream)
    metrics["serve.session.complete_us"] = session["complete_us"]
    metrics["serve.session.state_bytes"] = session["state_bytes"]
    metrics["serve.session.export_bytes"] = session["export_bytes"]
    metrics["drift.observe_us"] = session["observe_us"]
    for name, value in wire_timings(stream).items():
        metrics[f"serve.wire.{name}"] = value
    metrics["cluster.ring.owner_us"] = ring_owner_us()

    # -- hand-cranked pipeline ------------------------------------------------ #
    lanes = {"fleet_binary (incremental lane)":
             crank_lane(floating, seed, incremental=True),
             "fleet_batchlane (batch lane)":
             crank_lane(floating, seed, incremental=False)}
    trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    write_chrome_trace(trace_path, lanes)
    incremental, batchlane = (span_medians(spans) for spans in lanes.values())
    # submit() on the incremental lane contains the scorer push; its self
    # time is what the session itself adds.
    metrics["serve.session.submit_us"] = \
        incremental["serve.session.submit"] - metrics["nn.fastpath.push_us"]
    metrics["serve.session.submit_batchlane_us"] = \
        batchlane["serve.session.submit"]
    metrics["serve.batcher.enqueue_us"] = incremental["serve.batcher.enqueue"]
    metrics["serve.batcher.flush_us_per_request_prescored"] = \
        incremental["serve.batcher.flush"]
    metrics["serve.batcher.flush_us_per_request_unscored"] = \
        batchlane["serve.batcher.flush"]
    metrics["serve.wire.decode_push_us_per_frame"] = \
        incremental["serve.wire.decode_frame"]
    # The whole awaited call: it contains the submit (scorer push included)
    # and the enqueue timed above; what is left is the service's own share.
    metrics["serve.service.push_us"] = service_push_us(floating, stream)

    # -- served legs ----------------------------------------------------------- #
    fleet, paced, cluster = (WORKLOADS[name] for name in
                             ("fleet_binary", "paced_alarm", "cluster_2w"))
    try:
        # The workload's own leg runs first, on a fresh server, so the
        # snapshot counters below are its alone.  An in-process workload is
        # served as fleet_binary traffic on its artifact.
        own = workload if workload.kind != "edge" else fleet
        own_body = legs.body(own, workload.precision)
        served = own_body.details
        metrics["serve.batcher.queue_wait_p50_ms"] = served["queue_wait_p50_ms"]
        metrics["serve.batcher.queue_wait_p99_ms"] = served["queue_wait_p99_ms"]
        metrics["serve.batcher.mean_batch"] = served["mean_batch"]
        metrics["serve.batcher.flushes"] = float(served["flushes"])
        metrics["serve.service.scoring_share"] = \
            served["scoring_time_s"] / served["server_cpu_s"]
        metrics["serve.service.samples_dropped"] = \
            float(served["samples_dropped"])
        metrics["serve.service.alarms_total"] = float(served["alarms_total"])
        metrics["serve.tcp.frames_per_s"] = served["frames_per_s"]
        metrics["loadgen.alarm_rate"] = \
            served["alarms"] / max(1, served["scored"])
        metrics["loadgen.cpu_share"] = served["loadgen_cpu_share"]

        plain = own_body if own is fleet and workload.precision == "float" \
            else legs.body(fleet, "float")
        direct = legs.server("float", ())
        metrics["serve.tcp.ping_rtt_p50_us"] = \
            ping_rtt_us(BinaryClient, direct.port)
        metrics["serve.tcp.ping_rtt_json_p50_us"] = \
            ping_rtt_us(TCPClient, direct.port)
        direct_push = push_rtt_us(direct.port, stream[:8])

        open_loop = own_body if own is paced else legs.body(paced, "float")
        metrics["loadgen.late_p99_ms"] = open_loop.details["late_p99_ms"]
        metrics["loadgen.ack_lag_max"] = \
            float(open_loop.details["ack_lag_max"])

        observed = legs.body(fleet, "float", ("--observability",))
        metrics["obs.overhead_pct"] = 100.0 * (
            1.0 - workloads.reduce_bodies([observed])["samples_per_s"]
            / workloads.reduce_bodies([plain])["samples_per_s"])
        with BinaryClient(port=legs.server(
                "float", ("--observability",)).port) as client:
            metrics["obs.metrics_render_ms"] = \
                median_call_us(client.metrics, 5) / 1e3
            server_trace = client.trace()
        metrics["obs.trace_events_dropped"] = \
            float(server_trace["otherData"]["dropped"])

        sharded = own_body if own is cluster else legs.body(cluster, "float")
        router = legs.server("float", cluster.flags)
        metrics["cluster.router.ping_rtt_p50_us"] = \
            ping_rtt_us(BinaryClient, router.port)
        metrics["cluster.router.hop_us"] = \
            push_rtt_us(router.port, stream[:8]) - direct_push
        samples = sharded.details["timed_samples"]
        metrics["cluster.router.cpu_us_per_sample"] = \
            sharded.details["server_cpu_parent_s"] / samples * 1e6
        metrics["cluster.worker.cpu_us_per_sample"] = \
            (sharded.details["server_cpu_s"]
             - sharded.details["server_cpu_parent_s"]) / samples * 1e6
        metrics["cluster.stats.shard_skew"] = sharded.details["shard_skew"]
    finally:
        legs.stop()

    rho, disagreements = estimator_rank_agreement(stream)
    metrics["edge.estimator.rank_agreement"] = rho

    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
    low, high = (0.0, 1.0) if quick else inputs.ALARM_RATE_BAND
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "correct": legs.failed == 0
        and low <= metrics["loadgen.alarm_rate"] <= high,
        "attempted": legs.attempted, "failed": legs.failed,
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "details": {
            "chrome_trace": str(trace_path.relative_to(out_dir.parent.parent)),
            "self_time_s": {lane: self_times(spans)
                            for lane, spans in lanes.items()},
            "rank_disagreements": disagreements,
            "served_trace_events": server_trace["otherData"],
            "leg_seconds": legs.leg_seconds,
        },
    }
