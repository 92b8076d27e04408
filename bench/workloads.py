"""The seven workloads: timed bodies, load generators, and their checks.

Names are final -- later issues cite them.  Every layer is driven from
outside through its public entry points; nothing here reaches into a plan
class, so ROADMAP items 2-3 can land without editing this directory.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs, oracle, procs, stats

CHUNK = 4096                 #: samples generated / replayed per step (edge)
RATE_SLICE = 512             #: pushes per throughput slice (edge)
CHUNK_SAMPLES = {"binary": 1024, "json": 256}   #: per throughput chunk (served)
FLEET_WARMUP_S = 0.5         #: untimed prefix of the closed-loop workloads
PACED_WARMUP_S = 0.8         #: ... and of the open loop (fills every window)
CPU_TICK_S = 0.5             #: server CPU is sampled this often
REPLAY_SHARE = 0.3           #: reference replay sampled for this share of --seconds
PACED_HZ = 100.0             #: per-stream sample rate of `paced_alarm`
ACK_LAG_ABORT = 1600         #: one second of unacked frames = unsustainable
#: stream pools are sized to this many samples/s so a faster program still
#: finds input; a run that exhausts its pool simply ends early
POOL_RATE = {"binary": 24000.0, "json": 6000.0}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  #: "edge" | "closed" | "paced"
    precision: str             #: which artifact it runs: "float" | "int8"
    why: str
    flags: Tuple[str, ...] = ()    #: extra `repro serve` flags
    protocol: str = "binary"
    block: int = 8             #: samples per PUSH op
    connections: int = 1
    #: server and load generator share one core (run.run_e2e says why)
    one_core: bool = False
    latency_kind: str = ""     #: what `latency_*` times on this workload


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("edge_float", "edge", "float",
             "the paper's on-device loop: ScoringSession.push one sample at a "
             "time, then score_stream replay; nn.fastpath + serve.session only",
             latency_kind="one ScoringSession.push call"),
    Workload("edge_int8", "edge", "int8",
             "the same loop on the int8 twin: nn.quant; the paper's precision "
             "axis, where one int8 push is today slower than one float push",
             latency_kind="one ScoringSession.push call"),
    Workload("fleet_binary", "closed", "float",
             "default serving path: 16 streams, 8-sample binary PUSH frames, "
             "incremental lane; the per-push GEMM dominates",
             one_core=True, latency_kind="one 8-sample PUSH round trip"),
    Workload("fleet_batchlane", "closed", "float",
             "same traffic with --no-incremental: MicroBatcher.flush + "
             "score_windows_batch do the work, the incremental plan none",
             flags=("--no-incremental",), one_core=True,
             latency_kind="one 8-sample PUSH round trip"),
    Workload("fleet_json", "closed", "float",
             "one JSON line per sample: 86 boxed floats make the codec and "
             "dispatch the bottleneck and scoring minor",
             protocol="json", block=1, one_core=True,
             latency_kind="one 1-sample JSON push round trip"),
    Workload("paced_alarm", "paced", "float",
             "open loop at 16 x 100 Hz: queueing, not compute, sets due-time "
             "to alarm-frame latency (max_delay_ms waited on a known score)",
             block=1,
             latency_kind="due send time to ALARM_EVENT decoded at the client"),
    Workload("cluster_2w", "closed", "float",
             "fleet_binary through router, trunk and 2 hash-placed workers: "
             "hop cost and shard skew on 2 cores, not scaling",
             flags=("--workers", "2"), connections=2,
             latency_kind="one 8-sample PUSH round trip via the router"),
)}


#: direction of every per-body reading (setup_s is the harness's own)
READINGS = {"samples_per_s": "higher", "replay_samples_per_s": "higher",
            "latency_p50_us": "lower", "latency_p95_us": "lower",
            "cpu_us_per_sample": "lower", "peak_rss_mb": "lower"}


@dataclass
class Body:
    """What one timed body measured: per-chunk readings of each metric."""

    readings: Dict[str, List[float]]
    attempted: int
    failed: int
    details: Dict[str, object] = field(default_factory=dict)


def reduce_bodies(bodies: Sequence[Body]) -> Dict[str, float]:
    """One value per metric from the pooled chunks of every body.

    A run spreads its timed body over several server (or child) processes,
    one per set-up, so a slow spell of the host can cover one body but rarely
    all of them.  Pooling the chunks and taking the quiet quartile reads the
    program as long as a quarter of the run was undisturbed (README, "How
    steady").  Peak memory is the median of the bodies' peaks.
    """
    metrics = {}
    for name, better in READINGS.items():
        pooled = [value for body in bodies for value in body.readings[name]]
        metrics[name] = float(np.median(pooled)) if name == "peak_rss_mb" \
            else stats.quiet_quartile(pooled, better)
    return metrics


class Unsustainable(RuntimeError):
    """The open loop's ack lag grew past ACK_LAG_ABORT."""


# --------------------------------------------------------------------------- #
# edge_float / edge_int8: a child process, so CPU and RSS are the loop's own
# --------------------------------------------------------------------------- #
def spawn_edge_child(package: Path, run_dir: Path, seed: int,
                     seconds: float) -> subprocess.Popen:
    """Start the in-process loop in its own interpreter; returns once the
    child has loaded the artifact and produced its first warm score."""
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--edge-child", "--package", str(package),
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=run_dir, env=procs.child_env(run_dir), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    if line.strip() != "READY":
        child.kill()
        child.wait()
        raise RuntimeError(f"edge child failed before its first score: {line!r}")
    return child


def finish_edge_child(child: subprocess.Popen) -> Body:
    try:
        out, _ = child.communicate(timeout=170.0)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"edge child exited with code {child.returncode}")
    payload = json.loads(out.strip().splitlines()[-1])
    return Body(payload["readings"], payload["attempted"], payload["failed"],
                payload["details"])


def edge_child_main(package: Path, seed: int, seconds: float) -> int:
    """Entry point of the child interpreter (``run.py --edge-child``)."""
    from repro.serve import ScoringSession

    detector = inputs.load_serving_detector(package)
    threshold = detector.threshold.threshold
    window = detector.window
    source_seed = inputs.stream_seed(seed, 0)

    # First warm score on both paths: absorbs the float plan's construct-time
    # BLAS probe and BLAS thread start-up, as a deployed loop would at boot.
    warm = inputs.StreamSource(source_seed).take(window + 256)
    session = ScoringSession(detector, "warm", record=False)
    for row in warm[:window + 1]:
        session.push(row)
    detector.score_stream(warm, batch_size=256)
    print("READY", flush=True)

    clock = time.perf_counter
    source = inputs.StreamSource(source_seed)
    session = ScoringSession(detector, "edge", record=False)
    push = session.push
    latencies = np.empty(int(40000 * seconds) + CHUNK)
    carry = np.empty((0, inputs.N_CHANNELS), dtype=np.float32)
    count = chunks = scored = alarms = failed = 0
    busy_s = 0.0
    cpu_us: List[float] = []
    replay_rates: List[float] = []
    # One caller pushes a chunk a sample at a time, then the same chunk is
    # replayed through the batch plan and must raise the same alarms.  The
    # two phases alternate so both sample the whole run, not half of it each.
    # The first chunk is the untimed warm-up prefix.
    while chunks == 0 or (busy_s < seconds
                          and count + CHUNK <= latencies.size):
        chunk = source.take(CHUNK)              # generated off the clock
        timed = chunks > 0
        pushed_alarms: List[oracle.Alarm] = []
        first = count
        cpu_start = time.process_time()
        t = clock()
        for row in chunk:
            alarm = push(row)
            now = clock()
            latencies[count] = now - t
            t = now
            count += 1
            if alarm is not None:
                pushed_alarms.append(("edge", alarm.index, alarm.score))
        cpu_s = time.process_time() - cpu_start
        block = np.concatenate((carry, chunk))
        start = clock()
        result = detector.score_stream(block, batch_size=256)
        replay_s = clock() - start
        if timed:
            cpu_us.append(cpu_s / CHUNK * 1e6)
            replay_rates.append(CHUNK / replay_s)
            busy_s += float(latencies[first:count].sum()) + replay_s
        else:
            count = 0                           # warm-up latencies not kept
        fresh = result.scores[carry.shape[0]:]
        offset = chunks * CHUNK
        replayed = {("edge", offset + int(index), float(fresh[index]))
                    for index in np.flatnonzero(fresh > threshold)}
        failed += oracle.check_alarms(pushed_alarms, replayed)
        scored += int(np.isfinite(fresh).sum())
        alarms += len(replayed)
        carry = block[-(window - 1):]
        chunks += 1
    latencies = latencies[:count] * 1e6
    push_rates = RATE_SLICE * 1e6 / latencies.reshape(-1, RATE_SLICE).sum(axis=1)
    p50s, p95s = stats.latency_chunks(latencies)
    tail, tail_percentile = stats.plain_tail(latencies)
    peak_rss = procs.parse_status_kb(
        Path("/proc/self/status").read_text(), "VmHWM") / 1024.0

    # Bit-equality, NaN prefix included, on a recording session (kept out of
    # the timed loop so the loop's memory does not grow with its speed).
    head = inputs.StreamSource(source_seed).take(2048)
    recorder = ScoringSession(detector, "oracle", record=True)
    for row in head:
        recorder.push(row)
    failed += oracle.check_scores(
        recorder.result().scores,
        detector.score_stream(head, batch_size=256).scores)
    if session.samples_scored != scored or session.samples_dropped:
        failed += 1

    print(json.dumps({
        "readings": {
            "samples_per_s": push_rates.tolist(),
            "replay_samples_per_s": replay_rates,
            "latency_p50_us": p50s,
            "latency_p95_us": p95s,
            "cpu_us_per_sample": cpu_us,
            "peak_rss_mb": [peak_rss],
        },
        "attempted": chunks * CHUNK,
        "failed": failed,
        "details": {
            "timed": count,
            "latency_tail_us": tail,
            "tail_percentile": tail_percentile,
            "scored": scored,
            "alarms": alarms,
        },
    }), flush=True)
    return 0


# --------------------------------------------------------------------------- #
# Closed loops: fleet_binary / fleet_batchlane / fleet_json / cluster_2w
# --------------------------------------------------------------------------- #
class _Driver(threading.Thread):
    """One connection's closed loop: next op only after the previous ack."""

    def __init__(self, workload: Workload, port: int, ids: Sequence[str],
                 streams: Sequence[np.ndarray],
                 schedule: Sequence[Tuple[int, int, int]],
                 stop_at: float) -> None:
        super().__init__(daemon=True)
        from repro.serve import BinaryClient, TCPClient

        factory = BinaryClient if workload.protocol == "binary" else TCPClient
        self.client = factory(port=port)
        self.ids, self.streams, self.schedule = ids, streams, schedule
        self.stop_at = stop_at
        self.pushed = [0] * len(ids)
        self.samples_done = 0
        self.done_at: List[float] = []
        self.rtt: List[float] = []
        self.amounts: List[int] = []
        self.failed_ops = 0
        self.error: Optional[Exception] = None

    def run(self) -> None:
        client, ids, streams = self.client, self.ids, self.streams
        clock = time.perf_counter
        try:
            for stream_id in ids:
                client.open(stream_id)
            t = clock()
            for stream, start, stop in self.schedule:
                try:
                    client.push(ids[stream], streams[stream][start:stop])
                except RuntimeError:        # an error reply: count, go on
                    self.failed_ops += 1
                else:
                    self.pushed[stream] = stop
                    self.samples_done += stop - start
                now = clock()
                self.rtt.append(now - t)
                self.done_at.append(now)
                self.amounts.append(stop - start)
                t = now
                if now >= self.stop_at:
                    break
        except Exception as error:          # re-raised by the main thread
            self.error = error

    def close_streams(self) -> Dict[str, dict]:
        return {stream_id: self.client.close_stream(stream_id)
                for stream_id in self.ids}

    def drain_alarms(self) -> List[oracle.Alarm]:
        """A ping's reply trails every alarm frame already on the wire."""
        self.client.ping()
        return [(event["stream"], event["index"], event["score"])
                for event in self.client.alarms]


class _CpuMeter:
    """Server CPU against work done, sampled every CPU_TICK_S.

    ``/proc`` ticks are 10 ms, so a half-second interval resolves 2 %.
    """

    def __init__(self, pids: Sequence[int]) -> None:
        self.pids = pids
        self._ticks: List[Tuple[np.ndarray, int, float, float]] = []

    def tick(self, samples_done: int) -> None:
        cpu = np.array([procs.cpu_seconds([pid]) for pid in self.pids])
        self._ticks.append((cpu, samples_done, time.process_time(),
                            time.perf_counter()))

    def us_per_sample(self) -> List[float]:
        """One reading per interval in which any sample was acked."""
        return [(after[0] - before[0]).sum() / (after[1] - before[1]) * 1e6
                for before, after in zip(self._ticks, self._ticks[1:])
                if after[1] > before[1]]

    def used_by_pid(self) -> np.ndarray:
        return self._ticks[-1][0] - self._ticks[0][0]

    def samples(self) -> int:
        return self._ticks[-1][1] - self._ticks[0][1]

    def loadgen_share(self) -> float:
        first, last = self._ticks[0], self._ticks[-1]
        return (last[2] - first[2]) / (last[3] - first[3])


def _snapshot_stats(port: int) -> Dict[str, float]:
    """Batcher/service counters from the server's always-on ``snapshot`` op."""
    from repro.cluster import ClusterStats
    from repro.serve import BinaryClient

    with BinaryClient(port=port) as client:
        snapshot = client.snapshot()
    per_worker = snapshot["workers"] if "workers" in snapshot \
        else {"self": snapshot}
    fleet = ClusterStats.from_snapshots(per_worker)
    total = fleet.total
    # Streams per worker, not samples: a count that repeats exactly for the
    # fixed stream ids, however far a time-bounded run got.
    placed = [worker.sessions_opened for worker in fleet.per_worker.values()]
    return {
        "queue_wait_p50_ms": total.queue_delay_histogram.p50 * 1e3,
        "queue_wait_p99_ms": total.queue_delay_histogram.p99 * 1e3,
        "mean_batch": total.mean_batch_size,
        "flushes": total.flushes,
        "scoring_time_s": total.scoring_time_s,
        "samples_dropped": total.samples_dropped,
        "alarms_total": total.alarms_total,
        "samples_scored": total.samples_scored,
        "shard_skew": max(placed) / (sum(placed) / len(placed)),
    }


def _server_details(meter: _CpuMeter, served: Dict[str, float]) -> dict:
    cpu_used = meter.used_by_pid()
    return {
        "timed_samples": meter.samples(),
        "server_pids": len(meter.pids),
        "server_cpu_s": float(cpu_used.sum()),
        # pids[0] is the process the benchmark started: the whole server, or
        # a cluster's router (its workers follow)
        "server_cpu_parent_s": float(cpu_used[0]),
        "loadgen_cpu_share": meter.loadgen_share(),
        **served,
    }


def _oracle_details(reference: oracle.Reference, latencies_us) -> dict:
    tail, tail_percentile = stats.plain_tail(latencies_us)
    return {
        "timed": len(latencies_us),
        "latency_tail_us": tail,
        "tail_percentile": tail_percentile,
        "scored": reference.scored,
        "alarms": len(reference.alarms),
    }


def run_closed(workload: Workload, server: procs.Server, detector, seed: int,
               seconds: float) -> Body:
    ids = inputs.stream_ids()
    n_samples = int(POOL_RATE[workload.protocol] * (seconds + FLEET_WARMUP_S)
                    / len(ids)) + inputs.WINDOW
    streams = inputs.make_streams(seed, len(ids), n_samples)
    # Each connection owns a contiguous half of the streams and interleaves
    # only those, so per-stream order survives any thread timing.
    per_driver = len(ids) // workload.connections
    pids = server.pids()
    warm_at = time.perf_counter() + min(FLEET_WARMUP_S, seconds)
    stop_at = warm_at + seconds
    drivers = []
    for index in range(workload.connections):
        lo = index * per_driver
        drivers.append(_Driver(
            workload, server.port, ids[lo:lo + per_driver],
            streams[lo:lo + per_driver],
            inputs.burst_schedule(seed * 8 + index, per_driver, n_samples,
                                  workload.block), stop_at))
    try:
        for driver in drivers:
            driver.start()
        meter = _CpuMeter(pids)
        time.sleep(max(0.0, warm_at - time.perf_counter()))
        meter.tick(sum(driver.samples_done for driver in drivers))
        while stop_at - time.perf_counter() > CPU_TICK_S / 2:
            time.sleep(min(CPU_TICK_S, stop_at - time.perf_counter()))
            meter.tick(sum(driver.samples_done for driver in drivers))
        for driver in drivers:
            driver.join(timeout=seconds + 60.0)
        meter.tick(sum(driver.samples_done for driver in drivers))
        for driver in drivers:
            if driver.is_alive():
                raise RuntimeError(f"{workload.name}: a driver never finished")
            if driver.error is not None:
                raise driver.error
        ended = max(driver.done_at[-1] for driver in drivers)

        summaries: Dict[str, dict] = {}
        for driver in drivers:
            summaries.update(driver.close_streams())
        pushed = {stream_id: count for driver in drivers
                  for stream_id, count in zip(driver.ids, driver.pushed)}
        reference = oracle.reference_replay(
            detector, ids, streams, [pushed[stream_id] for stream_id in ids],
            min_seconds=seconds * REPLAY_SHARE)
        received: List[oracle.Alarm] = []
        for driver in drivers:
            received.extend(driver.drain_alarms())
        served = _snapshot_stats(server.port)
        peak_rss = procs.peak_rss_mb(pids)
    finally:
        for driver in drivers:
            driver.client.close()

    # Both connections' completion logs merged: chunks of total throughput.
    done_at = np.concatenate([driver.done_at for driver in drivers])
    order = np.argsort(done_at, kind="stable")
    done_at = done_at[order]
    amounts = np.concatenate([driver.amounts for driver in drivers])[order]
    timed = done_at >= warm_at
    rates = stats.chunked_rates(
        done_at[timed], amounts[timed],
        workload.connections * CHUNK_SAMPLES[workload.protocol]
        // workload.block)
    latencies = np.concatenate([np.asarray(driver.rtt)[
        np.asarray(driver.done_at) >= warm_at] for driver in drivers]) * 1e6
    p50s, p95s = stats.latency_chunks(latencies)
    failed_ops = sum(driver.failed_ops for driver in drivers)
    failed = (failed_ops + oracle.check_alarms(received, reference.alarms)
              + oracle.check_summaries(summaries, pushed, detector.window)
              + int(served["samples_dropped"]))
    return Body(
        readings={
            "samples_per_s": rates,
            "replay_samples_per_s": reference.replay_rates,
            "latency_p50_us": p50s,
            "latency_p95_us": p95s,
            "cpu_us_per_sample": meter.us_per_sample(),
            "peak_rss_mb": [peak_rss],
        },
        attempted=len(done_at),
        failed=failed,
        details={
            "frames_per_s": int(timed.sum()) / (min(stop_at, ended) - warm_at),
            "pool_exhausted": ended < stop_at,
            **_oracle_details(reference, latencies),
            **_server_details(meter, served),
        })


# --------------------------------------------------------------------------- #
# paced_alarm: open loop on a fixed schedule
# --------------------------------------------------------------------------- #
class _FrameReader(threading.Thread):
    """Decodes every reply/event frame and stamps when it was decoded."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(daemon=True)
        from repro.serve import wire

        self._wire = wire
        self._sock = sock
        self.acked = 0
        self.ack_at: List[float] = []
        self.alarms: List[Tuple[str, int, float, float]] = []
        self.close_acks: Dict[str, dict] = {}
        self.errors = 0
        self.pings = 0
        self.error: Optional[BaseException] = None
        self.progress = threading.Condition()

    def run(self) -> None:
        wire = self._wire
        decoder = wire.FrameDecoder()
        clock = time.perf_counter
        try:
            while True:
                data = self._sock.recv(1 << 16)
                if not data:
                    return
                decoder.feed(data)
                with self.progress:
                    for frame in decoder.frames():
                        now = clock()
                        if isinstance(frame, wire.PushAck):
                            self.acked += frame.accepted
                            self.ack_at.append(now)
                        elif isinstance(frame, wire.AlarmEvent):
                            self.alarms.append((frame.stream, frame.index,
                                                frame.score, now))
                        elif isinstance(frame, wire.CloseAck):
                            self.close_acks[frame.stream] = {
                                "samples_pushed": frame.samples_pushed,
                                "samples_scored": frame.samples_scored,
                                "samples_dropped": frame.samples_dropped}
                        elif isinstance(frame, wire.PingAck):
                            self.pings += 1
                        elif isinstance(frame, wire.ErrorReply):
                            self.errors += 1
                    self.progress.notify_all()
        except OSError as error:
            self.error = error
            with self.progress:
                self.progress.notify_all()

    def wait_for(self, predicate, timeout_s: float) -> bool:
        with self.progress:
            return self.progress.wait_for(
                lambda: predicate() or self.error is not None, timeout_s) \
                and self.error is None


def run_paced(workload: Workload, server: procs.Server, detector, seed: int,
              seconds: float) -> Body:
    from repro.serve import wire

    ids = inputs.stream_ids()
    per_stream = int((PACED_WARMUP_S + seconds) * PACED_HZ)
    streams = inputs.make_streams(seed, len(ids), per_stream)
    # The whole schedule up front: stream s sends sample i at
    # (i + phase_s) / 100 Hz, phases seeded so frames spread over the tick.
    phases = np.random.default_rng(inputs.stream_seed(seed, 62)) \
        .uniform(0.0, 1.0, size=len(ids))
    due = ((np.arange(per_stream)[None, :] + phases[:, None]) / PACED_HZ)
    order = np.argsort(due, axis=None, kind="stable")
    plan = [(int(flat // per_stream), int(flat % per_stream)) for flat in order]
    due_offsets = due.ravel()[order]
    frames = [wire.encode(wire.Push(ids[s], streams[s][i:i + 1]))
              for s, i in plan]

    pids = server.pids()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = wire.FrameDecoder()
        for stream_id in ids:               # opens are synchronous, untimed
            sock.sendall(wire.encode(wire.Open(stream_id)))
        opened = 0
        while opened < len(ids):
            for frame in decoder.drain(sock.recv(1 << 16)):
                if not isinstance(frame, wire.OpenAck):
                    raise RuntimeError(f"paced_alarm: open refused: {frame!r}")
                opened += 1
        sock.settimeout(None)
        reader = _FrameReader(sock)         # reads on its own thread; this
        reader.start()                      # one only ever writes

        clock = time.perf_counter
        send = sock.sendall
        sent_at = np.empty(len(frames))
        ack_lag_max = 0
        origin = clock() + 0.05
        warm_at = origin + PACED_WARMUP_S
        meter = _CpuMeter(pids)
        next_tick = warm_at
        for k, frame in enumerate(frames):
            due_at = origin + due_offsets[k]
            if due_at >= next_tick:
                meter.tick(reader.acked)
                next_tick += CPU_TICK_S
            wait = due_at - clock()
            if wait > 0:
                time.sleep(wait)
            send(frame)
            sent_at[k] = clock()
            lag = k + 1 - reader.acked
            if lag > ack_lag_max:
                ack_lag_max = lag
                if lag > ACK_LAG_ABORT:
                    raise Unsustainable(
                        f"paced_alarm: {lag} frames unacked at "
                        f"{PACED_HZ * len(ids):.0f} samples/s")
        reader.wait_for(lambda: reader.acked >= len(frames), 10.0)
        meter.tick(reader.acked)

        for stream_id in ids:
            send(wire.encode(wire.Close(stream_id)))
        reader.wait_for(lambda: len(reader.close_acks) == len(ids), 10.0)
        pushed = {stream_id: per_stream for stream_id in ids}
        reference = oracle.reference_replay(
            detector, ids, streams, [per_stream] * len(ids),
            min_seconds=seconds * REPLAY_SHARE)
        send(wire.encode(wire.Ping()))      # trails every alarm on the wire
        reader.wait_for(lambda: reader.pings >= 1, 10.0)
        served = _snapshot_stats(server.port)
        peak_rss = procs.peak_rss_mb(pids)
        sock.shutdown(socket.SHUT_RDWR)     # unblocks the reader's recv
    reader.join(timeout=10.0)

    # Latency runs from each sample's *due* time, not its actual send, so a
    # generator stall counts against the samples it delayed.
    due_of = {(ids[s], i): origin + due_offsets[k]
              for k, (s, i) in enumerate(plan)}
    alarm_latency = [decoded - due_of[(stream_id, index)]
                     for stream_id, index, _, decoded in reader.alarms
                     if due_of.get((stream_id, index), 0.0) >= warm_at]
    latencies = np.asarray(alarm_latency) * 1e6
    p50s, p95s = stats.latency_chunks(latencies)
    late = sent_at - (origin + due_offsets)
    timed = origin + due_offsets >= warm_at
    ack_at = np.asarray(reader.ack_at)
    ack_at = ack_at[ack_at >= warm_at]
    rates = stats.chunked_rates(ack_at, np.ones(ack_at.size), 200)
    failed = (reader.errors + (len(frames) - reader.acked)
              + oracle.check_alarms([alarm[:3] for alarm in reader.alarms],
                                    reference.alarms)
              + oracle.check_summaries(reader.close_acks, pushed,
                                       detector.window)
              + int(served["samples_dropped"]))
    return Body(
        readings={
            "samples_per_s": rates,
            "replay_samples_per_s": reference.replay_rates,
            "latency_p50_us": p50s,
            "latency_p95_us": p95s,
            "cpu_us_per_sample": meter.us_per_sample(),
            "peak_rss_mb": [peak_rss],
        },
        attempted=len(frames),
        failed=failed,
        details={
            "frames_per_s": float(np.median(rates)),    # one sample per frame
            "offered_samples_per_s": PACED_HZ * len(ids),
            "late_p99_ms": float(np.percentile(late[timed], 99)) * 1e3,
            "ack_lag_max": int(ack_lag_max),
            **_oracle_details(reference, latencies),
            **_server_details(meter, served),
        })


def run_body(workload: Workload, server: procs.Server, detector, seed: int,
             seconds: float) -> Body:
    """The timed body of a served workload against a started server."""
    runner = run_paced if workload.kind == "paced" else run_closed
    return runner(workload, server, detector, seed, seconds)
