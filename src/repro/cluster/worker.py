"""A cluster worker: one wire server, one AnomalyService per tenant.

A worker is the unit the :class:`~repro.cluster.ShardRouter` shards
streams across.  It is a full :class:`~repro.serve.AnomalyWireServer`
(same binary/JSON wire protocol, same micro-batching service underneath)
with three cluster-specific traits:

* **Multi-tenant.**  It hosts one :class:`~repro.serve.AnomalyService`
  per packaged artifact, keyed by tenant name *and* by
  ``artifact_fingerprint`` -- an ``open`` frame's tenant key picks the
  detector the stream is scored with.
* **Handoff enabled.**  Workers are cluster-internal endpoints, so
  ``export_session``/``import_session`` are honoured (the rebalance
  primitive).  Never expose a worker port to untrusted clients --
  imported session blobs are pickles.
* **Supervised.**  ``python -m repro.cluster.worker`` prints a
  ``worker <name> pid <pid>`` line, writes its bound endpoint to the
  supervisor's port file (atomically), and serves until told to stop.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional

from ..serve.batcher import BACKPRESSURE_POLICIES
from ..serve.service import AnomalyService
from ..serve.tcp import PROTOCOLS, AnomalyWireServer
from ..serve.transport import Transport
from .stats import ClusterStats, merge_metrics_pages

__all__ = ["TenantWireServer", "WorkerConfig", "build_worker_server"]


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its server."""

    #: worker name (ring node name; must be unique in the fleet)
    name: str
    #: tenant name -> packaged artifact directory
    artifacts: Dict[str, Path] = field(default_factory=dict)
    #: tenant used when an ``open`` carries no tenant key
    default_tenant: Optional[str] = None
    transport: str = "tcp"
    host: str = "127.0.0.1"
    port: int = 0
    uds_path: Optional[Path] = None
    #: ServiceConfig overrides applied on top of each artifact's spec
    max_batch: Optional[int] = None
    max_delay_ms: Optional[float] = None
    max_queue: Optional[int] = None
    backpressure: Optional[str] = None
    incremental: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("worker name must be non-empty")
        if not self.artifacts:
            raise ValueError("a worker needs at least one tenant artifact")
        if self.transport not in ("tcp", "uds"):
            raise ValueError(
                f"unknown worker transport {self.transport!r} "
                f"(expected 'tcp' or 'uds')")
        if self.default_tenant is None and len(self.artifacts) == 1:
            self.default_tenant = next(iter(self.artifacts))
        if self.default_tenant is not None \
                and self.default_tenant not in self.artifacts:
            raise ValueError(
                f"default tenant {self.default_tenant!r} has no artifact; "
                f"tenants: {sorted(self.artifacts)}")


class TenantWireServer(AnomalyWireServer):
    """A wire server fronting one service per tenant artifact.

    ``services`` maps tenant names to *un-started* services;
    :meth:`~repro.serve.AnomalyWireServer.serve_forever` starts and stops
    all of them.  Stream ops resolve their service through the tenant key
    on the ``open`` (or ``import_session``) frame -- by tenant name or by
    the artifact's content fingerprint -- and the stream-to-tenant map is
    maintained so closes, exports, and alarms stay with the right
    detector.  ``stats`` and ``metrics`` answer with fleet-style merges
    across the hosted tenants (histograms exactly, summary quantiles
    conservatively).
    """

    def __init__(self, services: Dict[str, AnomalyService],
                 transport: Transport, *,
                 fingerprints: Optional[Dict[str, str]] = None,
                 default_tenant: Optional[str] = None,
                 allow_shutdown: bool = True,
                 protocols: Iterable[str] = PROTOCOLS) -> None:
        if not services:
            raise ValueError("a tenant server needs at least one service")
        self._services = dict(services)
        #: tenant -> artifact fingerprint (also accepted as a tenant key)
        self._fingerprints = dict(fingerprints or {})
        unknown = set(self._fingerprints) - set(self._services)
        if unknown:
            raise ValueError(
                f"fingerprints for unknown tenants: {sorted(unknown)}")
        if default_tenant is None and len(self._services) == 1:
            default_tenant = next(iter(self._services))
        if default_tenant is not None and default_tenant not in self._services:
            raise ValueError(
                f"default tenant {default_tenant!r} is not hosted; "
                f"tenants: {sorted(self._services)}")
        self.default_tenant = default_tenant
        anchor = self._services[default_tenant] if default_tenant is not None \
            else next(iter(self._services.values()))
        super().__init__(anchor, transport, allow_shutdown=allow_shutdown,
                         allow_handoff=True, protocols=protocols)
        #: live stream id -> tenant name (closed/exported streams drop out)
        self._stream_tenants: Dict[str, str] = {}

    # -- tenant resolution --------------------------------------------------- #
    def _resolve_tenant(self, key: Optional[str]) -> str:
        if key is None or (key == "default" and key not in self._services):
            if self.default_tenant is None:
                raise ValueError(
                    f"this worker hosts {len(self._services)} tenants and "
                    f"has no default; the open must carry a tenant key "
                    f"(one of {sorted(self._services)})")
            return self.default_tenant
        if key in self._services:
            return key
        for tenant, fingerprint in self._fingerprints.items():
            if key == fingerprint:
                return tenant
        raise ValueError(
            f"unknown tenant {key!r}; this worker hosts "
            f"{sorted(self._services)}")

    # -- AnomalyWireServer hooks --------------------------------------------- #
    def _all_services(self):
        return tuple(self._services.values())

    def _named_services(self) -> Dict[str, AnomalyService]:
        return dict(self._services)

    def _service_for(self, message) -> AnomalyService:
        return self._services[self._resolve_tenant(message.get("tenant"))]

    def _tenant_for_stream(self, stream_id: str) -> str:
        tenant = self._stream_tenants.get(stream_id)
        if tenant is not None:
            return tenant
        return self._resolve_tenant(None)

    def _register_stream(self, stream_id: str, message) -> None:
        self._stream_tenants[stream_id] = \
            self._resolve_tenant(message.get("tenant"))

    def _forget_stream(self, stream_id: str) -> None:
        self._stream_tenants.pop(stream_id, None)

    def _merged_stats(self):
        snapshot = self._snapshot()
        return ClusterStats.from_snapshots({"self": snapshot}).total

    def _metrics_text(self) -> str:
        pages = [service.metrics_text()
                 for service in self._services.values()
                 if service.observability is not None]
        if not pages:
            return self.service.metrics_text()   # the standard rejection
        return pages[0] if len(pages) == 1 else merge_metrics_pages(pages)

    def _snapshot(self):
        return {"services": {
            tenant: {"fingerprint": self._fingerprints.get(tenant),
                     "stats": service.stats().to_dict()}
            for tenant, service in self._services.items()}}

    def _note_swap(self, service) -> None:
        # A promotion/rollback changed the service's artifact; re-key the
        # tenant's fingerprint so fingerprint-addressed opens keep working.
        for tenant, hosted in self._services.items():
            if hosted is service:
                if service.artifact_fingerprint is not None:
                    self._fingerprints[tenant] = service.artifact_fingerprint
                else:
                    self._fingerprints.pop(tenant, None)


def build_worker_server(config: WorkerConfig) -> TenantWireServer:
    """Load every tenant artifact and assemble the worker's wire server."""
    from ..pipeline import Pipeline
    from ..serialize import artifact_fingerprint
    from ..serve import ServiceConfig, make_transport

    services: Dict[str, AnomalyService] = {}
    fingerprints: Dict[str, str] = {}
    for tenant, artifact_dir in config.artifacts.items():
        pipeline = Pipeline.load(artifact_dir)
        overrides = {"observability": True}
        for name in ("max_batch", "max_delay_ms", "max_queue",
                     "backpressure", "incremental"):
            value = getattr(config, name)
            if value is not None:
                overrides[name] = value
        spec = pipeline.spec.service
        service_config = spec.config(**overrides) if spec is not None \
            else ServiceConfig(**overrides)
        services[tenant] = pipeline.deploy_service(config=service_config)
        fingerprints[tenant] = artifact_fingerprint(artifact_dir)
    transport = make_transport(config.transport, host=config.host,
                               port=config.port, uds_path=config.uds_path)
    return TenantWireServer(services, transport, fingerprints=fingerprints,
                            default_tenant=config.default_tenant)


# --------------------------------------------------------------------------- #
# ``python -m repro.cluster.worker`` entry point
# --------------------------------------------------------------------------- #
def _parse_artifact(text: str) -> tuple:
    """``tenant=dir`` or a bare ``dir`` (tenant ``default``)."""
    tenant, sep, path = text.partition("=")
    if not sep:
        return "default", Path(text)
    if not tenant or not path:
        raise ValueError(f"--artifact needs TENANT=DIR, got {text!r}")
    return tenant, Path(path)


def argument_parser() -> argparse.ArgumentParser:
    """The flags :meth:`WorkerSupervisor._command` spawns a worker with."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One shard of a repro serving cluster (supervised; "
                    "not a user-facing entry point -- use `repro serve "
                    "--workers N`).")
    parser.add_argument("--name", required=True, help="worker/ring name")
    parser.add_argument("--artifact", action="append", required=True,
                        metavar="TENANT=DIR",
                        help="tenant artifact (repeatable; bare DIR means "
                             "tenant 'default')")
    parser.add_argument("--default-tenant", default=None)
    parser.add_argument("--transport", choices=("tcp", "uds"), default="tcp")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--uds-path", type=Path, default=None)
    parser.add_argument("--port-file", type=Path, default=None,
                        help="endpoint handshake file (written atomically)")
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--max-delay-ms", type=float, default=None)
    parser.add_argument("--max-queue", type=int, default=None)
    parser.add_argument("--backpressure", choices=BACKPRESSURE_POLICIES,
                        default=None)
    parser.add_argument("--no-incremental", action="store_true")
    return parser


def main(argv=None) -> int:
    import asyncio

    parser = argument_parser()
    args = parser.parse_args(argv)

    artifacts: Dict[str, Path] = {}
    for item in args.artifact:
        tenant, path = _parse_artifact(item)
        if tenant in artifacts:
            parser.error(f"duplicate tenant {tenant!r}")
        artifacts[tenant] = path
    try:
        config = WorkerConfig(
            name=args.name, artifacts=artifacts,
            default_tenant=args.default_tenant,
            transport=args.transport, host=args.host, port=args.port,
            uds_path=args.uds_path,
            max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
            max_queue=args.max_queue, backpressure=args.backpressure,
            incremental=False if args.no_incremental else None)
        server = build_worker_server(config)
    except (ValueError, OSError) as error:
        parser.error(str(error))
    print(f"worker {args.name} pid {os.getpid()} tenants "
          f"{'/'.join(sorted(artifacts))}", flush=True)
    try:
        asyncio.run(server.serve_forever(port_file=args.port_file))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
