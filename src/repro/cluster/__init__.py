"""Sharded multi-worker serving: shard router, worker fleet, rebalance.

``repro.cluster`` turns the single-process serving stack of
:mod:`repro.serve` into a horizontally sharded fleet while keeping the
client contract byte-for-byte identical:

* :class:`HashRing` -- deterministic consistent-hash placement of
  ``stream_id`` onto worker names (blake2b, virtual nodes).
* :class:`WorkerConfig` / ``python -m repro.cluster.worker`` -- a
  worker is a plain :class:`~repro.serve.AnomalyWireServer` fronting one
  :class:`~repro.serve.AnomalyService` per tenant artifact, with session
  handoff enabled; its whole config crosses the process boundary as one
  JSON document.
* :class:`WorkerSupervisor` -- subprocess lifecycle: spawn with a
  port-file handshake, health probes, restart on crash.
* :class:`ShardRouter` -- the single front door clients connect to; a
  protocol-aware proxy that forwards frames to the owning worker and
  re-homes sessions when the fleet changes shape.
* :class:`ClusterStats` -- fleet-level read-outs merged from per-worker
  snapshots (histograms merged exactly, quantiles conservatively).

Placement never uses Python's builtin ``hash`` -- it is salted per
process (``PYTHONHASHSEED``), which would scatter a stream to different
workers depending on who computes the hash.
"""

from .ring import HashRing
from .stats import ClusterStats
from .worker import WorkerConfig
from .supervisor import WorkerHandle, WorkerSupervisor
from .router import RouterConfig, ShardRouter
from .harness import ClusterHarness

__all__ = [
    "HashRing",
    "ClusterStats",
    "WorkerConfig",
    "WorkerHandle",
    "WorkerSupervisor",
    "RouterConfig",
    "ShardRouter",
    "ClusterHarness",
]
