"""Reference oracle: what the program *should* have produced for the inputs.

The reference is the detector's own batch replay
(``detector.score_stream``) over exactly the float32 samples the workload
pushed, thresholded with the calibrated threshold -- the repo's parity
contract says every serving path (inline push, incremental lane, batch lane,
cluster) must reproduce it bit for bit.  Every check returns a *count* of
failed-or-missing items; the sum feeds ``failed`` in the result line.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

Alarm = Tuple[str, int, float]          #: (stream id, sample index, score)


@dataclass
class Reference:
    alarms: Set[Alarm]
    scored: int                  #: samples a correct run scores
    replay_rates: List[float]    #: samples/s of each reference replay call


def reference_replay(detector, ids: Sequence[str],
                     streams: Sequence[np.ndarray], pushed: Sequence[int],
                     min_seconds: float = 0.0) -> Reference:
    """Replay each stream's pushed prefix through ``score_stream``.

    One pass builds the reference; further passes (timed only) repeat until
    ``min_seconds`` of replay have been sampled, so the reported replay rate
    rests on more than one short burst.
    """
    threshold = detector.threshold.threshold
    alarms: Set[Alarm] = set()
    scored = 0
    rates: List[float] = []
    busy = 0.0

    def replay(stream: np.ndarray, count: int):
        nonlocal busy
        samples = np.asarray(stream[:count], dtype=np.float64)
        start = time.perf_counter()
        result = detector.score_stream(samples, batch_size=256)
        elapsed = time.perf_counter() - start
        rates.append(count / elapsed)
        busy += elapsed
        return result

    jobs = [(stream_id, stream, count)
            for stream_id, stream, count in zip(ids, streams, pushed)
            if count >= detector.window]
    for stream_id, stream, count in jobs:
        result = replay(stream, count)
        scored += int(result.valid_mask.sum())
        for index in np.flatnonzero(result.scores > threshold):
            alarms.add((stream_id, int(index), float(result.scores[index])))
    for _, stream, count in itertools.cycle(jobs):
        if busy >= min_seconds:
            break
        replay(stream, count)
    return Reference(alarms, scored, rates)


def check_alarms(received: Iterable[Alarm], reference: Set[Alarm]) -> int:
    """Missing + extra + duplicated alarms (scores compared exactly)."""
    received = list(received)
    unique = set(received)
    duplicates = len(received) - len(unique)
    return len(reference - unique) + len(unique - reference) + duplicates


def check_summaries(summaries: Dict[str, dict], pushed: Dict[str, int],
                    window: int) -> int:
    """Close summaries: ``pushed == sent``, ``scored == sent - (window-1)``,
    ``dropped == 0`` -- one failure per stream that breaks any of them."""
    failures = 0
    for stream_id, sent in pushed.items():
        summary = summaries.get(stream_id)
        expected_scored = max(0, sent - (window - 1))
        if summary is None \
                or summary["samples_pushed"] != sent \
                or summary["samples_scored"] != expected_scored \
                or summary["samples_dropped"] != 0:
            failures += 1
    return failures


def check_scores(produced: np.ndarray, reference: np.ndarray) -> int:
    """Entries that are not bit-equal (NaN warm-up prefix included)."""
    produced = np.asarray(produced, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if produced.shape != reference.shape:
        return max(produced.size, reference.size)
    same = (produced == reference) | (np.isnan(produced) & np.isnan(reference))
    return int((~same).sum())
