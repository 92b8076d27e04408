"""Board-metric monitoring (jetson-stats substitute) and streaming histograms.

The paper samples board metrics with the jetson-stats library while each
detector runs, then reports the mean over the run (and over a 6-minute idle
window as the baseline).  :class:`BoardMonitor` reproduces that measurement
chain on top of the analytical device model: given the estimated operating
point of a detector it synthesises a time series of noisy metric samples (as
a real monitor would observe) and reduces them to the same mean statistics.

:class:`StreamingHistogram` is the long-run telemetry companion: a
fixed-bin histogram that summarises per-sample latencies and batch
occupancies as p50/p95/p99 without retaining the full trace, so an
always-on serving process (:mod:`repro.serve`) can report tail latency over
millions of samples in constant memory.  :class:`repro.serve.MicroBatcher`
keeps one for its enqueue-to-score latencies and one for its batch
occupancies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .device import EdgeDeviceSpec
from .estimator import EdgeMetrics

__all__ = ["MetricSample", "MonitoringSession", "BoardMonitor",
           "StreamingHistogram"]


class StreamingHistogram:
    """Fixed-bin streaming histogram with quantile estimates.

    Values are counted into pre-declared bins (ascending ``edges``); values
    below the first or above the last edge land in open-ended overflow bins.
    Memory is ``O(n_bins)`` regardless of how many values are added -- the
    point of the class: an always-on serving loop can keep p99 latency over
    an unbounded run without retaining the trace.  Exact minimum, maximum,
    count and sum are tracked alongside, so :meth:`quantile` can clamp its
    in-bin interpolation to the observed range (a histogram fed a single
    value reports that value for every quantile).

    Use :meth:`log_spaced` for latencies (relative resolution across six
    decades) and :meth:`linear` for bounded counts such as batch occupancy.

    A histogram with zero samples reports ``0.0`` for every statistic
    (mean/min/max/quantiles): the summaries feed JSON stats replies, where
    an ``inf``/``nan`` sentinel would serialise to a non-compliant token.
    The internal min/max sentinels stay ``+/-inf`` so merging an empty
    histogram into a populated one (or vice versa) remains exact.
    """

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D sequence of at least 2 values")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges
        # counts[0] underflows below edges[0]; counts[-1] overflows above
        # edges[-1]; counts[i] covers [edges[i-1], edges[i]).
        self._counts = np.zeros(edges.size + 1, dtype=np.int64)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def log_spaced(cls, low: float = 1e-6, high: float = 10.0,
                   bins_per_decade: int = 20) -> "StreamingHistogram":
        """Logarithmic bins from ``low`` to ``high`` (latency-style range)."""
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high for log-spaced edges")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be at least 1")
        decades = math.log10(high / low)
        n_edges = max(int(round(decades * bins_per_decade)) + 1, 2)
        return cls(np.logspace(math.log10(low), math.log10(high), n_edges))

    @classmethod
    def linear(cls, low: float, high: float, n_bins: int) -> "StreamingHistogram":
        """``n_bins`` equal-width bins across ``[low, high]`` (occupancy-style)."""
        if n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        return cls(np.linspace(low, high, n_bins + 1))

    # -- ingestion -------------------------------------------------------- #
    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self._counts[int(np.searchsorted(self.edges, value, side="right"))] += 1
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram with identical edges into this one.

        Raises a descriptive :class:`ValueError` -- before touching any
        state -- when the bin layouts differ, since a blind ``+=`` on
        mismatched count arrays would corrupt this histogram.  Merging is
        the fleet-aggregation primitive (:class:`repro.cluster.ClusterStats`
        folds per-worker histograms), so the message names both layouts.
        """
        if self.edges.size != other.edges.size:
            raise ValueError(
                f"cannot merge histograms with different bin counts: "
                f"this one has {self.edges.size - 1} bins over "
                f"[{self.edges[0]:g}, {self.edges[-1]:g}], the other has "
                f"{other.edges.size - 1} bins over "
                f"[{other.edges[0]:g}, {other.edges[-1]:g}]")
        if not np.array_equal(self.edges, other.edges):
            divergent = int(np.flatnonzero(self.edges != other.edges)[0])
            raise ValueError(
                f"cannot merge histograms with different edges: both have "
                f"{self.edges.size - 1} bins but the edges first diverge at "
                f"index {divergent} ({self.edges[divergent]:g} vs "
                f"{other.edges[divergent]:g})")
        self._counts += other._counts
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- serialization ---------------------------------------------------- #
    def to_state(self) -> Dict[str, object]:
        """A JSON-safe snapshot that :meth:`from_state` restores exactly.

        The ``+/-inf`` min/max sentinels of an empty histogram are mapped
        to ``None`` so the state survives strict-JSON transport (the
        cluster ``snapshot`` wire op ships these between processes).
        """
        return {
            "edges": [float(edge) for edge in self.edges],
            "counts": [int(count) for count in self._counts],
            "sum": self._sum,
            "min": None if math.isinf(self._min) else self._min,
            "max": None if math.isinf(self._max) else self._max,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingHistogram":
        """Rebuild a histogram from :meth:`to_state` output (bit-exact)."""
        histogram = cls(state["edges"])
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != histogram._counts.shape:
            raise ValueError(
                f"histogram state has {counts.size} counts for "
                f"{histogram.edges.size} edges (need edges + 1)")
        if np.any(counts < 0):
            raise ValueError("histogram state has negative bin counts")
        histogram._counts = counts
        histogram._count = int(counts.sum())
        histogram._sum = float(state["sum"])
        low, high = state["min"], state["max"]
        histogram._min = math.inf if low is None else float(low)
        histogram._max = -math.inf if high is None else float(high)
        return histogram

    # -- statistics ------------------------------------------------------- #
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile by interpolating inside the hit bin.

        The estimate is exact to within one bin width (one log-step for
        :meth:`log_spaced` histograms) and clamped to the exact observed
        ``[min, max]`` range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = np.cumsum(self._counts)
        bin_index = int(np.searchsorted(cumulative, rank, side="left"))
        previous = cumulative[bin_index - 1] if bin_index > 0 else 0
        in_bin = self._counts[bin_index]
        # Bin support, with the open overflow bins pinned to the exact
        # observed extrema.
        low = self.edges[bin_index - 1] if bin_index > 0 else self._min
        high = self.edges[bin_index] if bin_index < self.edges.size else self._max
        if in_bin > 0:
            fraction = (rank - previous) / in_bin
            value = low + fraction * (high - low)
        else:
            value = low
        return float(min(max(value, self._min), self._max))

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> Dict[str, float]:
        """The monitoring tuple the serving benchmark and stats report."""
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass(frozen=True)
class MetricSample:
    """One polled sample of board metrics."""

    timestamp_s: float
    power_w: float
    cpu_percent: float
    gpu_percent: float
    ram_mb: float
    gpu_ram_mb: float


@dataclass
class MonitoringSession:
    """A sequence of polled samples plus their mean summary."""

    device: str
    detector: str
    samples: List[MetricSample] = field(default_factory=list)

    def mean(self) -> Dict[str, float]:
        """Mean of every metric over the session (what Table 2 reports)."""
        if not self.samples:
            raise ValueError("monitoring session has no samples")
        return {
            "power_w": float(np.mean([s.power_w for s in self.samples])),
            "cpu_percent": float(np.mean([s.cpu_percent for s in self.samples])),
            "gpu_percent": float(np.mean([s.gpu_percent for s in self.samples])),
            "ram_mb": float(np.mean([s.ram_mb for s in self.samples])),
            "gpu_ram_mb": float(np.mean([s.gpu_ram_mb for s in self.samples])),
        }


class BoardMonitor:
    """Synthesise jetson-stats style metric traces around an operating point."""

    def __init__(self, device: EdgeDeviceSpec, poll_rate_hz: float = 1.0,
                 relative_noise: float = 0.03,
                 rng: Optional[np.random.Generator] = None) -> None:
        if poll_rate_hz <= 0:
            raise ValueError("poll_rate_hz must be positive")
        if relative_noise < 0:
            raise ValueError("relative_noise must be non-negative")
        self.device = device
        self.poll_rate_hz = poll_rate_hz
        self.relative_noise = relative_noise
        self._rng = rng if rng is not None else np.random.default_rng()

    def _noisy(self, value: float, lower: float = 0.0,
               upper: Optional[float] = None) -> float:
        noise = self._rng.normal(0.0, self.relative_noise * max(abs(value), 1e-9))
        result = value + noise
        if upper is not None:
            result = min(result, upper)
        return max(result, lower)

    def observe_idle(self, duration_s: float = 360.0) -> MonitoringSession:
        """Monitor the board in idle state (the paper's 6-minute baseline)."""
        device = self.device
        session = MonitoringSession(device=device.name, detector="Idle")
        n_samples = max(int(duration_s * self.poll_rate_hz), 1)
        for index in range(n_samples):
            session.samples.append(MetricSample(
                timestamp_s=index / self.poll_rate_hz,
                power_w=self._noisy(device.idle_power_w),
                cpu_percent=self._noisy(device.idle_cpu_percent, upper=100.0),
                gpu_percent=self._noisy(device.idle_gpu_percent, upper=100.0),
                ram_mb=self._noisy(device.idle_ram_mb, upper=device.total_ram_mb),
                gpu_ram_mb=self._noisy(device.idle_gpu_ram_mb, upper=device.total_ram_mb),
            ))
        return session

    def observe_run(self, operating_point: EdgeMetrics,
                    duration_s: float = 60.0) -> MonitoringSession:
        """Monitor the board while a detector streams at its operating point."""
        device = self.device
        session = MonitoringSession(device=device.name, detector=operating_point.detector)
        n_samples = max(int(duration_s * self.poll_rate_hz), 1)
        for index in range(n_samples):
            session.samples.append(MetricSample(
                timestamp_s=index / self.poll_rate_hz,
                power_w=self._noisy(operating_point.power_w),
                cpu_percent=self._noisy(operating_point.cpu_percent, upper=100.0),
                gpu_percent=self._noisy(operating_point.gpu_percent, upper=100.0),
                ram_mb=self._noisy(operating_point.ram_mb, upper=device.total_ram_mb),
                gpu_ram_mb=self._noisy(operating_point.gpu_ram_mb, upper=device.total_ram_mb),
            ))
        return session
