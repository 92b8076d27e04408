"""Fleet-level read-outs: merge per-worker snapshots.

Workers answer the ``snapshot`` wire op with a JSON document containing
one :meth:`~repro.serve.ServiceStats.to_dict` blob per hosted tenant.
:class:`ClusterStats` folds a fleet of those back into exact aggregate
counters -- histograms merge bin-by-bin via
:meth:`~repro.edge.StreamingHistogram.merge`, so the fleet p99 is
computed from the *combined* distribution, not averaged from per-worker
p99s (which would be meaningless).

The Prometheus pages have the analogous merge beside their renderer:
:func:`repro.obs.merge_metrics_pages`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..edge.monitor import StreamingHistogram
from ..serve.service import ServiceStats

__all__ = ["ClusterStats"]


def _blank_stats() -> ServiceStats:
    """An all-zero ServiceStats (the merge identity for an empty fleet)."""
    return ServiceStats(
        sessions_opened=0, sessions_closed=0, live_sessions=0,
        samples_pushed=0, samples_scored=0, samples_dropped=0,
        flushes=0, scoring_time_s=0.0,
        queue_delay_histogram=StreamingHistogram.log_spaced(1e-6, 60.0),
        occupancy_histogram=StreamingHistogram.linear(0.5, 1.5, 1),
    )


@dataclass
class ClusterStats:
    """Aggregated fleet telemetry built from per-worker snapshots."""

    #: number of worker snapshots merged
    workers: int
    #: exact fleet-wide aggregate (histograms merged bin-by-bin)
    total: ServiceStats
    #: per-tenant aggregates (each merged across every worker hosting it)
    tenants: Dict[str, ServiceStats] = field(default_factory=dict)
    #: per-worker totals, keyed by worker name (each merged across tenants)
    per_worker: Dict[str, ServiceStats] = field(default_factory=dict)

    @classmethod
    def from_snapshots(
            cls, snapshots: Mapping[str, Mapping]) -> "ClusterStats":
        """Merge ``{worker_name: snapshot}`` documents into fleet stats.

        Each snapshot is the reply body of the ``snapshot`` wire op:
        ``{"services": {tenant: {"fingerprint": ..., "stats": {...}}}}``.
        """
        tenant_parts: Dict[str, List[ServiceStats]] = {}
        worker_parts: Dict[str, List[ServiceStats]] = {}
        for worker, snapshot in snapshots.items():
            for tenant, entry in snapshot.get("services", {}).items():
                stats = ServiceStats.from_dict(entry["stats"])
                tenant_parts.setdefault(tenant, []).append(stats)
                worker_parts.setdefault(worker, []).append(stats)
        every = [s for parts in worker_parts.values() for s in parts]
        return cls(
            workers=len(snapshots),
            total=ServiceStats.merged(every) if every else _blank_stats(),
            tenants={tenant: ServiceStats.merged(parts)
                     for tenant, parts in tenant_parts.items()},
            per_worker={worker: ServiceStats.merged(parts)
                        for worker, parts in worker_parts.items()},
        )
