"""Golden baselines: an artifact's expected serving behaviour, persisted.

A :class:`GoldenBaseline` captures what a packaged artifact *should* look
like in production -- its score distribution, per-window scoring latency
and alarm rate over representative traffic -- as three constant-memory
:class:`~repro.edge.StreamingHistogram`\\ s plus counters.  It is recorded
offline by replaying traffic through the same serving core the service
uses (:class:`~repro.serve.ScoringSession` + micro-batched
``score_windows_batch`` calls), and stored as a versioned JSON sidecar
(``baseline.json``) next to the artifact's ``manifest.json``, keyed by the
artifact's deterministic fingerprint.

The canary controller (:mod:`repro.lifecycle.canary`) later compares the
candidate's *live* shadow statistics against this baseline: a candidate
whose live score distribution drifts from its own golden baseline, or
whose alarm rate explodes relative to it, is refused promotion.
:func:`distribution_shift` is the comparison primitive -- total-variation
distance between two same-edged histograms, in ``[0, 1]``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..edge.monitor import StreamingHistogram
from ..serialize import artifact_fingerprint, load_detector

__all__ = [
    "BASELINE_NAME",
    "BASELINE_VERSION",
    "LifecycleError",
    "GoldenBaseline",
    "distribution_shift",
    "record_baseline",
    "save_baseline",
    "load_baseline",
]

#: sidecar file name, next to the artifact's ``manifest.json``
BASELINE_NAME = "baseline.json"
#: schema version written by :func:`save_baseline`
BASELINE_VERSION = 1


class LifecycleError(RuntimeError):
    """A lifecycle operation cannot proceed (missing/stale baseline, ...)."""


def score_histogram() -> StreamingHistogram:
    """Fresh histogram with the canonical anomaly-score bin layout.

    Scores across the detector zoo span several decades but are
    non-negative, so log-spaced bins give relative resolution everywhere;
    the under/overflow bins catch whatever falls outside.  Baselines and
    canaries must share one layout or :func:`distribution_shift` cannot
    compare them -- this constructor is the single source of it.
    """
    return StreamingHistogram.log_spaced(1e-4, 1e4, bins_per_decade=8)


def latency_histogram() -> StreamingHistogram:
    """Fresh histogram with the canonical scoring-latency bin layout."""
    return StreamingHistogram.log_spaced(1e-7, 10.0)


@dataclass
class GoldenBaseline:
    """Per-artifact golden statistics (see module docstring).

    >>> baseline = GoldenBaseline(fingerprint="abc", detector="VARADE",
    ...                           streams=2, samples_scored=10, alarms=1,
    ...                           score_histogram=score_histogram(),
    ...                           latency_histogram=latency_histogram())
    >>> baseline.alarm_rate
    0.1
    >>> GoldenBaseline.from_dict(baseline.to_dict()).fingerprint
    'abc'
    """

    fingerprint: str               #: artifact fingerprint the stats describe
    detector: str                  #: detector class name (display only)
    streams: int                   #: replay streams the baseline covers
    samples_scored: int
    alarms: int
    score_histogram: StreamingHistogram
    latency_histogram: StreamingHistogram
    #: wall-clock recording time (display only; never compared)
    created_unix: Optional[float] = None

    @property
    def alarm_rate(self) -> float:
        if not self.samples_scored:
            return 0.0
        return self.alarms / self.samples_scored

    def to_dict(self) -> dict:
        return {
            "version": BASELINE_VERSION,
            "kind": "repro-golden-baseline",
            "fingerprint": self.fingerprint,
            "detector": self.detector,
            "streams": self.streams,
            "samples_scored": self.samples_scored,
            "alarms": self.alarms,
            "score_histogram": self.score_histogram.to_state(),
            "latency_histogram": self.latency_histogram.to_state(),
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "GoldenBaseline":
        if state.get("version") != BASELINE_VERSION:
            raise LifecycleError(
                f"unsupported baseline version {state.get('version')!r} "
                f"(this build reads version {BASELINE_VERSION})")
        return cls(
            fingerprint=state["fingerprint"],
            detector=state["detector"],
            streams=state["streams"],
            samples_scored=state["samples_scored"],
            alarms=state["alarms"],
            score_histogram=StreamingHistogram.from_state(
                state["score_histogram"]),
            latency_histogram=StreamingHistogram.from_state(
                state["latency_histogram"]),
            created_unix=state.get("created_unix"),
        )


def distribution_shift(expected: StreamingHistogram,
                       observed: StreamingHistogram) -> float:
    """Total-variation distance between two same-edged histograms.

    ``0.0`` means identical normalised distributions, ``1.0`` disjoint
    ones.  Under/overflow bins participate, so mass that escapes the bin
    range still counts as shift.  An empty histogram is at distance 1
    from any populated one (and 0 from another empty one): "no data yet"
    must never read as "no shift".

    >>> a, b = score_histogram(), score_histogram()
    >>> for value in (0.5, 0.5, 2.0):
    ...     a.add(value); b.add(value)
    >>> distribution_shift(a, b)
    0.0
    >>> b.add(1e6)  # mass where the baseline has none
    >>> 0.0 < distribution_shift(a, b) <= 1.0
    True
    """
    if expected.count == 0 or observed.count == 0:
        return 0.0 if expected.count == observed.count else 1.0
    p = np.asarray(expected.to_state()["counts"], dtype=np.float64)
    q = np.asarray(observed.to_state()["counts"], dtype=np.float64)
    if p.shape != q.shape or not np.array_equal(expected.edges,
                                                observed.edges):
        raise ValueError(
            "cannot compare histograms with different bin layouts; build "
            "both from repro.lifecycle.baseline.score_histogram()")
    return float(0.5 * np.abs(p / p.sum() - q / q.sum()).sum())


def _as_streams(traffic) -> List[np.ndarray]:
    """Normalise ``traffic`` to a list of ``(n_samples, channels)`` arrays."""
    if isinstance(traffic, np.ndarray):
        if traffic.ndim == 2:
            return [np.asarray(traffic, dtype=np.float64)]
        if traffic.ndim == 3:
            return [np.asarray(stream, dtype=np.float64)
                    for stream in traffic]
        raise ValueError(
            f"traffic arrays must be 2-D (one stream) or 3-D (a stack of "
            f"streams); got ndim={traffic.ndim}")
    streams = [np.asarray(stream, dtype=np.float64) for stream in traffic]
    if not streams:
        raise ValueError("traffic must contain at least one stream")
    for stream in streams:
        if stream.ndim != 2:
            raise ValueError("every traffic stream must be a 2-D "
                             "(n_samples, channels) array")
    return streams


def record_baseline(artifact: Union[str, Path], traffic, *,
                    max_batch: int = 64,
                    write: bool = True) -> GoldenBaseline:
    """Replay ``traffic`` through an artifact and persist its golden baseline.

    ``artifact`` is a packaged artifact directory
    (:func:`repro.serialize.save_detector` layout); ``traffic`` is one
    ``(n_samples, channels)`` array or a sequence of them -- use the same
    kind of traffic the artifact will serve (typically the spec's held-out
    test split).  The replay goes through the serving core
    (:func:`repro.serve.replay_streams`: per-stream
    :class:`~repro.serve.ScoringSession`\\ s feeding a
    :class:`~repro.serve.MicroBatcher` round-robin, alarms decided by the
    artifact's own calibrated threshold), so the recorded distributions
    are the serving path's, not an offline approximation.

    Returns the :class:`GoldenBaseline`; with ``write=True`` (default) it
    is also saved to ``<artifact>/baseline.json`` for
    :func:`load_baseline` / the canary flow to find.
    """
    from ..serve.batcher import MicroBatcher
    from ..serve.replay import replay_streams
    from ..serve.session import ScoringSession

    artifact = Path(artifact)
    streams = _as_streams(traffic)
    detector = load_detector(artifact)
    sessions = [
        ScoringSession(detector, f"baseline-{position}", record=False)
        for position in range(len(streams))
    ]
    batcher = MicroBatcher(detector, max_batch=max_batch,
                           max_delay_ms=0.0, max_queue=max_batch)
    scores = score_histogram()
    latencies = latency_histogram()
    alarms = 0
    for sample in replay_streams(sessions, streams, batcher):
        scores.add(sample.score)
        latencies.add(sample.latency_s)
        alarms += int(sample.alarm)

    baseline = GoldenBaseline(
        fingerprint=artifact_fingerprint(artifact),
        detector=detector.name,
        streams=len(streams),
        samples_scored=batcher.scored,
        alarms=alarms,
        score_histogram=scores,
        latency_histogram=latencies,
        created_unix=time.time(),
    )
    if write:
        save_baseline(baseline, artifact)
    return baseline


def save_baseline(baseline: GoldenBaseline,
                  artifact: Union[str, Path]) -> Path:
    """Write the baseline sidecar next to the artifact's manifest."""
    artifact = Path(artifact)
    if not artifact.is_dir():
        raise LifecycleError(
            f"artifact directory not found: {artifact}")
    path = artifact / BASELINE_NAME
    path.write_text(json.dumps(baseline.to_dict(), indent=2,
                               sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_baseline(artifact: Union[str, Path], *,
                  verify: bool = True) -> GoldenBaseline:
    """Read an artifact's golden baseline sidecar.

    With ``verify=True`` (default) the sidecar's recorded fingerprint
    must match the artifact's current fingerprint -- a stale baseline
    (artifact re-trained after the baseline was recorded) would gate the
    canary against the wrong expectations, which is strictly worse than
    failing loudly here.
    """
    artifact = Path(artifact)
    path = artifact / BASELINE_NAME
    if not path.is_file():
        raise LifecycleError(
            f"no golden baseline at {path}; record one with "
            f"repro.lifecycle.record_baseline(artifact, traffic)")
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise LifecycleError(f"corrupt baseline sidecar {path}: {error}") \
            from error
    baseline = GoldenBaseline.from_dict(state)
    if verify:
        current = artifact_fingerprint(artifact)
        if baseline.fingerprint != current:
            raise LifecycleError(
                f"baseline at {path} was recorded for artifact "
                f"{baseline.fingerprint[:12]}... but the artifact now "
                f"fingerprints as {current[:12]}...; re-record the baseline")
    return baseline


def windowed_quantile(before: dict, after: dict, q: float = 0.99) -> float:
    """Quantile of the samples a histogram gained between two snapshots.

    ``before``/``after`` are :meth:`StreamingHistogram.to_state` dicts of
    the *same* histogram at two points in time; the difference of their
    cumulative bin counts is the window's distribution.  Returns the upper
    edge of the quantile bin (conservative), the top edge for overflow
    mass, and ``0.0`` for an empty window.  The meta-watcher uses this to
    turn the service's cumulative latency histogram into a per-tick p99.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    counts = (np.asarray(after["counts"], dtype=np.int64)
              - np.asarray(before["counts"], dtype=np.int64))
    if np.any(counts < 0):
        raise ValueError("snapshots are out of order (counts decreased)")
    edges = after["edges"]
    total = int(counts.sum())
    if total <= 0:
        return 0.0
    target = math.ceil(q * total)
    position = int(np.searchsorted(np.cumsum(counts), target))
    if position >= len(edges):
        # Overflow bin: all we know is "above the top edge".
        observed_max = after.get("max")
        top = float(edges[-1])
        return max(top, float(observed_max)) if observed_max is not None \
            else top
    return float(edges[position])
