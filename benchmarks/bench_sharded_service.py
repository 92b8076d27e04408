"""Experiment S2 -- sharded serving: aggregate throughput vs worker count.

64 streams deliver bursty, unaligned sample blocks through one shard-router
endpoint (``repro.cluster``); the router consistent-hash-partitions them
across N worker subprocesses, each a full serving stack scoring on the
non-incremental lane (so per-sample compute is real work that a second
core can actually absorb -- the O(1) incremental lane would make every
fleet size wire-bound and identical).

Acceptance (the PR gate):

* >= 2.5x aggregate samples/sec at 4 workers vs 1 worker, on hosts with
  at least 4 CPUs (skipped below that -- a 1-core box serialises the
  worker processes and measures the scheduler, not the architecture);
* alarms bit-identical between the 1-worker and 2-worker fleets on every
  host (sharding must be invisible in the scores -- the cheap standing
  re-check of ``tests/test_cluster/test_cluster_parity.py``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_service.py -q -s
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import ClusterHarness, WorkerConfig
from repro.pipeline import (CalibrationSpec, DataSpec, DeploymentSpec,
                            DetectorSpec, Pipeline, ServiceSpec)
from repro.serve import BinaryClient

N_CHANNELS = 3
WINDOW = 16
N_STREAMS = 64
MIN_SAMPLES, MAX_SAMPLES = 120, 200
N_DRIVERS = 8          #: concurrent client connections into the router
SPEEDUP_GATE = 2.5
REQUIRED_CPUS = 4


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A mid-weight VARADE artifact: heavy enough that scoring dominates
    the router's per-frame proxy cost."""
    spec = DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": N_CHANNELS, "window": WINDOW,
                    "base_feature_maps": 16},
            training={"epochs": 2, "mean_warmup_epochs": 1,
                      "variance_finetune_epochs": 1, "learning_rate": 3e-3,
                      "max_train_windows": 200},
        ),
        data=DataSpec(source="synthetic",
                      params={"n_channels": N_CHANNELS, "train_samples": 400,
                              "test_samples": 100}),
        calibration=CalibrationSpec(method="quantile", quantile=0.95),
        service=ServiceSpec(max_batch=16, max_delay_ms=5.0),
        seed=0,
    )
    out = tmp_path_factory.mktemp("sharded-bench") / "artifact"
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(spec.data.build(spec.seed).train).calibrate()
    pipeline.package(out)
    return out


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(0)
    return {f"s{i}": rng.normal(
                size=(int(rng.integers(MIN_SAMPLES, MAX_SAMPLES + 1)),
                      N_CHANNELS)).astype("float32")
            for i in range(N_STREAMS)}


def _burst_schedule(lengths, seed):
    """Bursty unaligned interleave: (stream, start, stop) blocks of 1-4
    samples, per-stream order preserved -- the fleet arrival pattern."""
    rng = np.random.default_rng(seed)
    cursors = {sid: 0 for sid in lengths}
    schedule = []
    live = [sid for sid, n in lengths.items() if n]
    while live:
        sid = live[int(rng.integers(len(live)))]
        start = cursors[sid]
        stop = min(start + int(rng.integers(1, 5)), lengths[sid])
        schedule.append((sid, start, stop))
        cursors[sid] = stop
        if stop == lengths[sid]:
            live.remove(sid)
    return schedule


def _drive(port, streams, schedule, alarms, lock):
    with BinaryClient(port=port) as client:
        for sid in streams:
            client.open(sid)
        for sid, start, stop in schedule:
            client.push(sid, streams[sid][start:stop])
        summaries = {sid: client.close_stream(sid) for sid in streams}
        time.sleep(0.2)
        client.ping()           # flush buffered alarm events
        with lock:
            for event in client.alarms:
                alarms[event["stream"]].append(
                    (event["index"], event["score"]))
    return summaries


def _run_fleet(artifact, n_workers, streams):
    """Total wall time for 64 bursty streams through an n-worker cluster,
    driven by N_DRIVERS concurrent client connections."""
    configs = [WorkerConfig(name=f"w{i}", artifacts={"default": artifact},
                            service={"incremental": False})
               for i in range(n_workers)]
    stream_ids = sorted(streams)
    chunks = [stream_ids[i::N_DRIVERS] for i in range(N_DRIVERS)]
    alarms = {sid: [] for sid in streams}
    lock = threading.Lock()
    with ClusterHarness(configs) as cluster:
        with BinaryClient(port=cluster.port) as warm:
            warm.ping()         # connection + trunk warm-up off the clock
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_DRIVERS) as pool:
            futures = [
                pool.submit(
                    _drive, cluster.port,
                    {sid: streams[sid] for sid in chunk},
                    _burst_schedule({sid: len(streams[sid])
                                     for sid in chunk}, seed=index),
                    alarms, lock)
                for index, chunk in enumerate(chunks)]
            summaries = {}
            for future in futures:
                summaries.update(future.result())
        elapsed = time.perf_counter() - start
    total = sum(len(data) for data in streams.values())
    assert sum(s["samples_pushed"] for s in summaries.values()) == total
    for sid in alarms:
        alarms[sid].sort()
    return elapsed, total, alarms


def test_sharding_is_invisible_in_the_alarms(artifact, streams):
    """1-worker and 2-worker fleets must alarm bit-identically."""
    _, _, single = _run_fleet(artifact, 1, streams)
    _, _, double = _run_fleet(artifact, 2, streams)
    assert sum(len(a) for a in single.values()) > 0, \
        "no alarms raised; the parity check is void"
    assert double == single


def test_aggregate_throughput_scales_to_4_workers(artifact, streams):
    if _cpu_count() < REQUIRED_CPUS:
        pytest.skip(f"needs >= {REQUIRED_CPUS} CPUs to measure scaling "
                    f"(found {_cpu_count()})")
    results = {}
    for n_workers in (1, 4):
        elapsed, total, _ = _run_fleet(artifact, n_workers, streams)
        results[n_workers] = total / elapsed
    speedup = results[4] / results[1]

    print()
    print(f"sharded serving -- VARADE window {WINDOW}, {N_STREAMS} bursty "
          f"unaligned streams over {N_DRIVERS} connections, "
          f"non-incremental scoring")
    print(f"{'workers':>8} {'samples/s':>12} {'speedup':>8}")
    for n_workers, sps in sorted(results.items()):
        print(f"{n_workers:>8} {sps:>12.0f} {sps / results[1]:>7.2f}x")

    assert speedup >= SPEEDUP_GATE, \
        f"4-worker aggregate throughput only {speedup:.2f}x the " \
        f"single-worker fleet (gate {SPEEDUP_GATE}x)"
