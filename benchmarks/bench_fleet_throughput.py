"""Experiment F1 -- fleet serving throughput: samples/sec vs stream count.

Compares the batched :meth:`repro.pipeline.Pipeline.deploy_fleet` replay against
running the sequential :class:`repro.edge.StreamingRuntime` once per stream, for a
growing number of concurrent streams.  On small edge-sized models the
per-call overhead (Python dispatch, buffer staging) dominates the
arithmetic, so batching one window per stream into a single
``score_windows_batch`` call is where multi-tenant throughput comes from.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_throughput.py -q -s
"""

import time

import pytest

from repro.data import StreamReader
from repro.edge import StreamingRuntime

STREAM_COUNTS = (1, 2, 4, 8, 16)
STREAM_SAMPLES = 400
TIMING_REPEATS = 3


def _make_streams(fleet_stream_factory, n_streams):
    return [fleet_stream_factory(STREAM_SAMPLES, seed=100 + index)
            for index in range(n_streams)]


def _best_of(repeats, run):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fleet_throughput_scaling(benchmark, fleet_pipeline, fleet_stream_factory):
    detector = fleet_pipeline.detector
    rows = []
    speedups = {}
    for n_streams in STREAM_COUNTS:
        streams = _make_streams(fleet_stream_factory, n_streams)
        readers = [StreamReader(stream) for stream in streams]

        def run_sequential():
            # Pin the incremental lane off: this benchmark isolates what
            # cross-stream micro-batching buys over one-window batch calls
            # (bench_incremental_scoring.py gates the incremental lane).
            return [StreamingRuntime(detector, incremental=False).run(reader)
                    for reader in readers]

        def run_fleet():
            return fleet_pipeline.deploy_fleet(streams)

        seq_time, seq_results = _best_of(TIMING_REPEATS, run_sequential)
        fleet_time, fleet_result = _best_of(TIMING_REPEATS, run_fleet)

        scored = sum(result.samples_scored for result in seq_results)
        assert scored == fleet_result.stats.samples_scored
        seq_sps = scored / seq_time
        fleet_sps = scored / fleet_time
        speedups[n_streams] = fleet_sps / seq_sps
        rows.append((n_streams, scored, seq_sps, fleet_sps, fleet_sps / seq_sps,
                     fleet_result.stats.mean_batch_size))

    print()
    print("fleet throughput -- VARADE, window "
          f"{detector.window}, {STREAM_SAMPLES} samples/stream")
    print(f"{'streams':>8} {'scored':>8} {'seq sps':>12} {'fleet sps':>12} "
          f"{'speedup':>8} {'mean batch':>11}")
    for n_streams, scored, seq_sps, fleet_sps, speedup, mean_batch in rows:
        print(f"{n_streams:>8} {scored:>8} {seq_sps:>12.0f} {fleet_sps:>12.0f} "
              f"{speedup:>7.2f}x {mean_batch:>11.2f}")

    # Record the batched engine at the acceptance operating point.
    streams_8 = _make_streams(fleet_stream_factory, 8)
    benchmark(lambda: fleet_pipeline.deploy_fleet(streams_8))

    # Acceptance: >= 3x the sequential per-stream throughput at 8 streams.
    assert speedups[8] >= 3.0, f"8-stream fleet speedup only {speedups[8]:.2f}x"
    # Amortisation should keep improving as the fleet grows (with slack, since
    # this compares two noise-affected timing ratios).
    assert speedups[16] >= 0.8 * speedups[2], speedups


@pytest.mark.slow
def test_fleet_throughput_wide(fleet_pipeline, fleet_stream_factory):
    """Wider sweep (up to 64 streams) for the scaling curve; slow tier only."""
    previous_sps = 0.0
    for n_streams in (16, 32, 64):
        streams = _make_streams(fleet_stream_factory, n_streams)
        fleet_time, result = _best_of(2, lambda: fleet_pipeline.deploy_fleet(streams))
        sps = result.stats.samples_scored / fleet_time
        print(f"{n_streams} streams: {sps:,.0f} samples/sec")
        assert sps > 0.5 * previous_sps  # throughput must not collapse
        previous_sps = sps
