"""Lightweight metrics registry with Prometheus text exposition.

Three metric kinds, matching the Prometheus data model:

``Counter``
    Monotonic event count (``..._total`` names by convention).
``Gauge``
    Point-in-time value that can go up and down.
``Summary``
    Quantile summary backed by :class:`repro.edge.StreamingHistogram`
    (constant memory, mergeable, no per-sample allocation).

Every metric can either hold its own value (``inc()`` / ``set()`` /
``observe()``) or *read through* to an existing counter on the
instrumented object via a zero-argument callback evaluated at render
time.  Read-through is the preferred integration: the serving hot path
keeps its plain-int counters and pays nothing for metrics until a
scrape actually happens, and the rendered page reconciles with
``ServiceStats`` by construction because both read the same fields.

Label support is by *family*: registering with ``labels=("protocol",)``
returns a family whose ``labels(protocol="json")`` method vends (and
caches) one child per label-value combination.

Example — register, update, render:

>>> registry = MetricsRegistry()
>>> scored = registry.counter("demo_samples_scored_total",
...                           "Samples scored since start.")
>>> scored.inc(3)
>>> lag = registry.gauge("demo_queue_lag", "Windows waiting in queue.")
>>> lag.set(2)
>>> reqs = registry.counter("demo_requests_total", "Requests served.",
...                         labels=("op",))
>>> reqs.labels(op="push").inc()
>>> print(registry.render())
# HELP demo_samples_scored_total Samples scored since start.
# TYPE demo_samples_scored_total counter
demo_samples_scored_total 3
# HELP demo_queue_lag Windows waiting in queue.
# TYPE demo_queue_lag gauge
demo_queue_lag 2
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{op="push"} 1
<BLANKLINE>
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.edge.monitor import StreamingHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Summary",
    "MetricFamily",
    "MetricsRegistry",
    "merge_metrics_pages",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Characters escaped in HELP text and label values, per the Prometheus
# text exposition format (version 0.0.4).
_HELP_ESCAPES = {"\\": r"\\", "\n": r"\n"}
_LABEL_ESCAPES = {"\\": r"\\", "\n": r"\n", '"': r"\""}


def _escape(text: str, table: Dict[str, str]) -> str:
    for raw, escaped in table.items():
        text = text.replace(raw, escaped)
    return text


def _format_value(value: float) -> str:
    """Render a sample value as a Prometheus float literal."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared value plumbing: either a manual value or a render-time callback."""

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._fn = fn
        self._value: float = 0

    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Counter(_Metric):
    """Monotonically increasing count.

    >>> c = Counter()
    >>> c.inc(); c.inc(4); c.value()
    5
    """

    def inc(self, amount: float = 1) -> None:
        if self._fn is not None:
            raise TypeError("read-through counters are updated at the source")
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount


class Gauge(_Metric):
    """Point-in-time value.

    >>> g = Gauge()
    >>> g.set(1.5); g.value()
    1.5
    """

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TypeError("read-through gauges are updated at the source")
        self._value = value


class Summary:
    """Quantile summary backed by a :class:`StreamingHistogram`.

    Renders Prometheus summary series: one ``{quantile="..."}`` sample
    per configured quantile plus ``_sum`` and ``_count``.  Either owns
    its histogram (``observe()`` feeds it) or reads through to one
    maintained by the instrumented object.

    >>> s = Summary(histogram=StreamingHistogram.log_spaced(1e-3, 10.0))
    >>> for v in (0.1, 0.1, 0.1):
    ...     s.observe(v)
    >>> s.histogram().count
    3
    """

    def __init__(self, *,
                 histogram: Optional[StreamingHistogram] = None,
                 fn: Optional[Callable[[], StreamingHistogram]] = None,
                 quantiles: Sequence[float] = (0.5, 0.95, 0.99)) -> None:
        if (histogram is None) == (fn is None):
            raise TypeError("provide exactly one of histogram= or fn=")
        self._histogram = histogram
        self._fn = fn
        self.quantiles = tuple(quantiles)

    def observe(self, value: float) -> None:
        if self._histogram is None:
            raise TypeError("read-through summaries are fed at the source")
        self._histogram.add(value)

    def histogram(self) -> StreamingHistogram:
        return self._fn() if self._fn is not None else self._histogram


_KINDS = {Counter: "counter", Gauge: "gauge", Summary: "summary"}


class MetricFamily:
    """One registered metric name: its metadata plus labelled children."""

    def __init__(self, name: str, help: str, kind: str,
                 labels: Tuple[str, ...],
                 make_child: Callable[[], object]) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = labels
        self._make_child = make_child
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labels:
            # Unlabelled: a single anonymous child created eagerly so
            # the series appears (at zero) from the first scrape on.
            self._children[()] = make_child()

    def labels(self, **labels: str) -> object:
        """Return the child for this label-value combination, creating it."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    @property
    def default(self) -> object:
        """The single child of an unlabelled family."""
        if self.label_names:
            raise ValueError(f"metric {self.name} is labelled; use .labels()")
        return self._children[()]

    def _series(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._children.items())


class MetricsRegistry:
    """Ordered collection of metric families with text exposition.

    Families render in registration order; labelled children render in
    sorted label order, so the page is deterministic — a property the
    golden-snapshot test relies on.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------

    def _register(self, name: str, help: str, kind: str,
                  labels: Sequence[str],
                  make_child: Callable[[], object]) -> MetricFamily:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != labels:
                raise ValueError(
                    f"metric {name} already registered as {existing.kind} "
                    f"with labels {existing.label_names}")
            return existing
        family = MetricFamily(name, help, kind, labels, make_child)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str, *,
                labels: Sequence[str] = (),
                fn: Optional[Callable[[], float]] = None):
        """Register (or fetch) a counter.  Unlabelled families return the
        Counter itself; labelled families return the family."""
        family = self._register(name, help, "counter", labels,
                                lambda: Counter(fn=fn))
        return family if labels else family.default

    def gauge(self, name: str, help: str, *,
              labels: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None):
        family = self._register(name, help, "gauge", labels,
                                lambda: Gauge(fn=fn))
        return family if labels else family.default

    def summary(self, name: str, help: str, *,
                labels: Sequence[str] = (),
                histogram: Optional[Callable[[], StreamingHistogram]] = None,
                quantiles: Sequence[float] = (0.5, 0.95, 0.99)):
        """Register a summary.  ``histogram`` is a zero-argument callback
        returning the live StreamingHistogram (read-through); omit it to
        let each child own a fresh log-spaced histogram."""
        def make_child() -> Summary:
            if histogram is not None:
                return Summary(fn=histogram, quantiles=quantiles)
            return Summary(histogram=StreamingHistogram.log_spaced(),
                           quantiles=quantiles)
        family = self._register(name, help, "summary", labels, make_child)
        return family if labels else family.default

    # -- exposition --------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    def render(self) -> str:
        """Render the registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} "
                         f"{_escape(family.help, _HELP_ESCAPES)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family._series():
                pairs = [
                    f'{label}="{_escape(value, _LABEL_ESCAPES)}"'
                    for label, value in zip(family.label_names, key)]
                if family.kind == "summary":
                    hist = child.histogram()
                    for q in child.quantiles:
                        q_pairs = pairs + [f'quantile="{_format_value(q)}"']
                        lines.append(
                            f"{family.name}{{{','.join(q_pairs)}}} "
                            f"{_format_value(hist.quantile(q))}")
                    suffix = "{" + ",".join(pairs) + "}" if pairs else ""
                    total = hist.mean * hist.count
                    lines.append(f"{family.name}_sum{suffix} "
                                 f"{_format_value(total)}")
                    lines.append(f"{family.name}_count{suffix} "
                                 f"{_format_value(hist.count)}")
                else:
                    suffix = "{" + ",".join(pairs) + "}" if pairs else ""
                    lines.append(f"{family.name}{suffix} "
                                 f"{_format_value(child.value())}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Prometheus text page merging
# --------------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)\s*$")


def merge_metrics_pages(pages: List[str]) -> str:
    """Merge Prometheus text pages from several services into one page.

    Counters, gauges, and summary ``_sum``/``_count`` series are summed
    per ``(name, labels)``; summary *quantile* series report the per-page
    **max** -- the conservative read: the true merged quantile is
    unrecoverable from per-page quantiles, and an alarm that over-reports
    latency beats one that hides a slow shard.  ``HELP``/``TYPE`` comments
    come from the first page declaring each family; family and series
    order follows first appearance.
    """
    types: Dict[str, str] = {}
    headers: Dict[str, List[str]] = {}
    family_order: List[str] = []
    series_order: List[Tuple[str, str]] = []
    values: Dict[Tuple[str, str], float] = {}
    series_family: Dict[Tuple[str, str], str] = {}

    for page in pages:
        family = ""
        for line in page.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    family = parts[2]
                    if family not in headers:
                        headers[family] = []
                        family_order.append(family)
                    if parts[1] == "TYPE" and len(parts) == 4:
                        types.setdefault(family, parts[3].strip())
                    if line not in headers[family]:
                        headers[family].append(line)
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                continue
            name = match.group("name")
            labels = match.group("labels") or ""
            try:
                value = float(match.group("value"))
            except ValueError:
                continue
            base = _family_of(name, types)
            key = (name, labels)
            if key not in values:
                series_order.append(key)
                series_family[key] = base
                values[key] = value
            elif _is_quantile(name, labels, base, types):
                values[key] = max(values[key], value)
            else:
                values[key] += value

    lines: List[str] = []
    emitted: set = set()
    for family in family_order:
        lines.extend(headers[family])
        for key in series_order:
            if series_family.get(key) == family and key not in emitted:
                emitted.add(key)
                lines.append(f"{key[0]}{key[1]} {_format_value(values[key])}")
    for key in series_order:    # series with no HELP/TYPE header
        if key not in emitted:
            emitted.add(key)
            lines.append(f"{key[0]}{key[1]} {_format_value(values[key])}")
    return "\n".join(lines) + "\n" if lines else ""


def _family_of(name: str, types: Dict[str, str]) -> str:
    """Strip summary/histogram suffixes back to the declared family name."""
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def _is_quantile(name: str, labels: str, family: str,
                 types: Dict[str, str]) -> bool:
    if types.get(family) != "summary":
        return False
    return name == family and "quantile=" in labels

