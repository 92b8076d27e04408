"""Small statistics the harness reports: percentiles, chunked readings, quartiles."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

import numpy as np

#: tail percentiles, highest first; each needs >= MIN_BEYOND samples above it
PERCENTILE_LADDER = (99, 95, 90, 50)
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it.

    p99 needs 1,000 samples, p95 200, p90 100; anything smaller reports the
    median and says so -- a tail read off fewer than ten samples is noise.
    """
    for percentile in PERCENTILE_LADDER:
        if n_samples * (100 - percentile) / 100.0 >= MIN_BEYOND:
            return percentile
    return PERCENTILE_LADDER[-1]


LATENCY_CHUNK = 200      #: samples per latency chunk: exactly ten beyond its p95
MIN_CHUNKS = 4           #: fewer chunks than this and a quartile means nothing


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The quartile of per-chunk readings on the undisturbed side.

    This box shares its cores: for seconds at a time everything runs 15-40 %
    slower, while nothing ever makes a chunk much *faster* than the hardware
    allows.  A median over chunks follows a slow spell as soon as it covers
    half the run; the quartile on the good side (75th percentile of a rate,
    25th of a time) needs only a quarter of the run undisturbed, and on
    recorded traces halves the run-to-run spread.  It is still a quartile of
    many chunks, not a best-of: one lucky chunk cannot move it.  With fewer
    than four chunks it is their median.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size < MIN_CHUNKS:
        return float(np.median(array))
    return float(np.percentile(array, 75 if better == "higher" else 25))


def latency_chunks(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Per-chunk ``(medians, 95th percentiles)`` of a time-ordered sample.

    Chunks are 200 consecutive samples (a trailing partial chunk is dropped);
    a sample shorter than one chunk is a single chunk.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ValueError("no latency samples to summarise")
    chunks = max(1, array.size // LATENCY_CHUNK)
    by_chunk = array[:chunks * LATENCY_CHUNK].reshape(chunks, -1) \
        if array.size >= LATENCY_CHUNK else array[None, :]
    return (np.median(by_chunk, axis=1).tolist(),
            np.percentile(by_chunk, 95, axis=1).tolist())


def plain_tail(values: Sequence[float]) -> Tuple[float, int]:
    """``(value, percentile)``: the plain percentile the ladder supports over
    the whole sample -- reported, but too unsteady here to carry a bound."""
    array = np.asarray(values, dtype=np.float64)
    percentile = tail_percentile(array.size)
    return float(np.percentile(array, percentile)), percentile


def chunked_rates(done_at: Sequence[float], amounts: Sequence[float],
                  ops_per_chunk: int) -> List[float]:
    """Per-chunk rates of a completion log.

    ``done_at[i]`` is when op ``i`` (worth ``amounts[i]`` units) completed.
    Each chunk is ``ops_per_chunk`` consecutive ops, timed from the
    completion of the op before it.  Fixed-count chunks keep a rate a
    continuous reading (fixed-time slices would quantise it to whole ops per
    slice).
    """
    done_at = np.asarray(done_at, dtype=np.float64)
    if done_at.size < 2:
        raise ValueError("fewer than two timed ops: no rate to report")
    edges = np.arange(0, done_at.size, ops_per_chunk)
    if edges.size < 2:                  # a smoke run: one chunk of everything
        edges = np.array([0, done_at.size - 1])
    done = np.cumsum(np.asarray(amounts, dtype=np.float64))
    return (np.diff(done[edges]) / np.diff(done_at[edges])).tolist()


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation (no ties expected in measured times)."""
    rank_a = np.argsort(np.argsort(np.asarray(a, dtype=np.float64)))
    rank_b = np.argsort(np.argsort(np.asarray(b, dtype=np.float64)))
    return float(np.corrcoef(rank_a, rank_b)[0, 1])
