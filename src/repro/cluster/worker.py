"""A cluster worker: one wire server, one AnomalyService per tenant.

A worker is the unit the :class:`~repro.cluster.ShardRouter` shards
streams across.  It is a plain multi-tenant
:class:`~repro.serve.AnomalyWireServer` (same binary/JSON wire protocol,
same micro-batching service underneath) built from a
:class:`WorkerConfig`, with two cluster-specific traits:

* **Handoff enabled.**  Workers are cluster-internal endpoints, so
  ``export_session``/``import_session`` are honoured (the rebalance
  primitive).  Never expose a worker port to untrusted clients --
  imported session blobs are pickles.
* **Supervised.**  ``python -m repro.cluster.worker --config JSON
  --port-file PATH`` takes its whole :class:`WorkerConfig` as one JSON
  document, prints a ``worker <name> pid <pid>`` line, writes its bound
  endpoint to the supervisor's port file (atomically), and serves until
  told to stop.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..serve.service import ServiceConfig
from ..serve.tcp import AnomalyWireServer

__all__ = ["WorkerConfig", "build_worker_server"]


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
    #: :class:`~repro.serve.ServiceConfig` overrides applied on top of
    #: each artifact's ``spec.service`` (``{"max_batch": 8, ...}``)
    service: Mapping[str, Any] = field(default_factory=dict)

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
        try:
            ServiceConfig(**self.service)
        except TypeError as error:      # an unknown ServiceConfig field
            raise ValueError(f"bad service override: {error}") from None

    def to_json(self) -> str:
        """The one document that crosses the supervisor -> worker boundary."""
        return json.dumps(dataclasses.asdict(self), default=str)  # Paths

    @classmethod
    def from_json(cls, text: str) -> "WorkerConfig":
        document = json.loads(text)
        document["artifacts"] = {tenant: Path(path) for tenant, path
                                 in document["artifacts"].items()}
        if document.get("uds_path") is not None:
            document["uds_path"] = Path(document["uds_path"])
        return cls(**document)


def build_worker_server(config: WorkerConfig) -> AnomalyWireServer:
    """Load every tenant artifact and assemble the worker's wire server."""
    from ..pipeline import Pipeline
    from ..serve import make_transport

    # Workers keep a metrics registry unless told otherwise: the router's
    # fleet ``metrics`` page is the merge of theirs.
    overrides = {"observability": True, **config.service}
    services = {}
    for tenant, artifact_dir in config.artifacts.items():
        pipeline = Pipeline.load(artifact_dir)
        services[tenant] = pipeline.deploy_service(
            config=pipeline.service_config(**overrides))
    transport = make_transport(config.transport, host=config.host,
                               port=config.port, uds_path=config.uds_path)
    return AnomalyWireServer(services, transport, allow_handoff=True,
                             default_tenant=config.default_tenant)


# --------------------------------------------------------------------------- #
# ``python -m repro.cluster.worker`` entry point
# --------------------------------------------------------------------------- #
def argument_parser() -> argparse.ArgumentParser:
    """The two flags :meth:`WorkerSupervisor._command` spawns a worker with."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One shard of a repro serving cluster (supervised; "
                    "not a user-facing entry point -- use `repro serve "
                    "--workers N`).")
    parser.add_argument("--config", required=True, metavar="JSON",
                        help="the WorkerConfig, as WorkerConfig.to_json "
                             "writes it")
    parser.add_argument("--port-file", type=Path, default=None,
                        help="endpoint handshake file (written atomically)")
    return parser


def main(argv=None) -> int:
    import asyncio

    parser = argument_parser()
    args = parser.parse_args(argv)
    try:
        config = WorkerConfig.from_json(args.config)
        server = build_worker_server(config)
    except (ValueError, OSError) as error:
        parser.error(str(error))
    print(f"worker {config.name} pid {os.getpid()} tenants "
          f"{'/'.join(sorted(config.artifacts))}", flush=True)
    try:
        asyncio.run(server.serve_forever(port_file=args.port_file))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
