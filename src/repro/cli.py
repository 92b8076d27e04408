"""``python -m repro`` -- the reproducible deployment pipeline CLI.

Drives :class:`repro.pipeline.Pipeline` end to end from the command line, so
an edge deployment is reproducible from one spec file and a handful of
commands that share a working directory::

    python -m repro train    --spec spec.json --workdir runs/cell-7
    python -m repro quantize --workdir runs/cell-7
    python -m repro package  --workdir runs/cell-7
    python -m repro stream   --workdir runs/cell-7
    python -m repro bench    --workdir runs/cell-7
    python -m repro serve    --workdir runs/cell-7 --port 7007

Layout of the working directory:

* ``spec.json``        -- the deployment spec (copied/written by ``train``);
* ``detector/``        -- the fitted + calibrated float artifact;
* ``detector-int8/``   -- the int8 artifact (written by ``quantize``);
* ``package/``         -- the final deployable artifact (``package``), int8
  when one exists, with the spec embedded in its manifest;
* ``package.fingerprint`` -- the deterministic content fingerprint of the
  package (:func:`repro.serialize.artifact_fingerprint`).

``train --fast`` uses a built-in tiny synthetic spec (seconds on a laptop
CPU), which is what the CI smoke job runs on every push.  All stages are
deterministic in the spec's master ``seed``: re-running ``train`` +
``package`` from the same spec reproduces the same fingerprint.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from .pipeline import (CalibrationSpec, DataSpec, DeploymentSpec, DetectorSpec,
                       Pipeline, PipelineStageError, QuantizationSpec,
                       RuntimeSpec, ServiceSpec, SpecError)
from .lifecycle import LifecycleError
from .serialize import MANIFEST_NAME, SerializationError, artifact_fingerprint
from .serve.batcher import BACKPRESSURE_POLICIES

__all__ = ["main", "fast_spec"]

SPEC_NAME = "spec.json"
FLOAT_ARTIFACT = "detector"
INT8_ARTIFACT = "detector-int8"
PACKAGE_DIR = "package"
FINGERPRINT_NAME = "package.fingerprint"


class CLIUsageError(Exception):
    """A user-facing CLI mistake (missing file/flag); exits 2 like SpecError."""


def _drop_stale(workdir: Path, *names: str) -> None:
    """Remove derived artifacts a stage has just made stale."""
    for name in names:
        stale = workdir / name
        if stale.is_dir():
            shutil.rmtree(stale)
            print(f"removed stale {stale}/")
    (workdir / FINGERPRINT_NAME).unlink(missing_ok=True)


def fast_spec(seed: int = 0) -> DeploymentSpec:
    """The built-in tiny synthetic spec behind ``train --fast``."""
    return DeploymentSpec(
        detector=DetectorSpec(
            kind="varade",
            params={"n_channels": 4, "window": 16, "base_feature_maps": 4},
            training={"epochs": 2, "mean_warmup_epochs": 1,
                      "variance_finetune_epochs": 2, "learning_rate": 3e-3,
                      "max_train_windows": 150},
        ),
        data=DataSpec(source="synthetic",
                      params={"n_channels": 4, "train_samples": 400,
                              "test_samples": 400}),
        calibration=CalibrationSpec(method="quantile", quantile=0.995),
        service=ServiceSpec(max_batch=16, max_delay_ms=5.0),
        runtime=RuntimeSpec(sample_rate_hz=50.0,
                            devices=("Jetson Xavier NX", "Jetson AGX Orin")),
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _load_spec(workdir: Path) -> DeploymentSpec:
    spec_path = workdir / SPEC_NAME
    if not spec_path.is_file():
        raise CLIUsageError(
            f"{spec_path} not found; run `repro train` in this "
            f"workdir first (or pass --workdir)"
        )
    return DeploymentSpec.load(spec_path)


def _build_dataset(spec: DeploymentSpec) -> Any:
    if spec.data is None:
        raise CLIUsageError(
            "the spec has no 'data' entry; the CLI stages need one to "
            "build the training/replay streams"
        )
    return spec.data.build(spec.seed)


def _serving_artifact(workdir: Path, prefer_package: bool = False) -> Path:
    """The artifact that deploys.

    ``prefer_package`` picks the packaged directory when one exists (the
    ``stream``/``bench`` stages replay what was shipped); otherwise the int8
    artifact wins over the float one.
    """
    if prefer_package:
        package = workdir / PACKAGE_DIR
        if (package / MANIFEST_NAME).is_file():
            return package
    int8 = workdir / INT8_ARTIFACT
    if (int8 / MANIFEST_NAME).is_file():
        return int8
    return workdir / FLOAT_ARTIFACT


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_train(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    if args.fast:
        spec = fast_spec(seed=args.seed if args.seed is not None else 0)
    elif args.spec is not None:
        if not args.spec.is_file():
            raise CLIUsageError(f"spec file {args.spec} not found")
        spec = DeploymentSpec.load(args.spec)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:
        raise CLIUsageError("train needs --spec FILE or --fast")

    dataset = _build_dataset(spec)
    print(f"train: kind={spec.detector.kind} seed={spec.seed} "
          f"data={spec.data.source} "
          f"train_samples={np.asarray(dataset.train).shape[0]}")
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(dataset.train)
    pipeline.calibrate()
    detector = pipeline.detector
    assert detector.threshold is not None
    loss = detector.history.final_loss
    loss_part = f", final loss {loss}" if loss is not None else ""
    print(f"train: fitted {detector.name} in "
          f"{detector.history.wall_time_s:.1f}s{loss_part}, threshold "
          f"{detector.threshold.threshold:.6g} "
          f"({detector.threshold.method}, {detector.threshold.parameter})")

    workdir.mkdir(parents=True, exist_ok=True)
    spec.save(workdir / SPEC_NAME)
    pipeline.package(workdir / FLOAT_ARTIFACT, overwrite=True)
    # Derived artifacts from a previous run no longer match the new weights;
    # drop them so a later `quantize`/`package`/`stream` cannot silently
    # serve them.
    _drop_stale(workdir, INT8_ARTIFACT, PACKAGE_DIR)
    print(f"train: wrote {workdir / SPEC_NAME} and {workdir / FLOAT_ARTIFACT}/")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    spec = _load_spec(workdir)
    if args.headroom is not None:
        spec = dataclasses.replace(
            spec, quantization=QuantizationSpec(headroom=args.headroom))
    elif spec.quantization is None:
        spec = dataclasses.replace(spec, quantization=QuantizationSpec())
    pipeline = Pipeline.load(workdir / FLOAT_ARTIFACT)
    # The refreshed spec may legitimately differ in its quantization (and
    # other post-training) entries, but training-relevant edits would make
    # the packaged spec lie about the weights it ships with.
    for field_name in ("detector", "data", "calibration", "seed"):
        if getattr(spec, field_name) != getattr(pipeline.spec, field_name):
            raise CLIUsageError(
                f"spec.json {field_name!r} differs from the spec the float "
                f"artifact was trained with; re-run `repro train` before "
                f"quantizing"
            )
    # The loaded artifact may predate the quantization entry; the refreshed
    # spec governs this stage and is re-saved below.
    pipeline.spec = spec

    dataset = _build_dataset(spec)
    try:
        pipeline.quantize(np.asarray(dataset.train, dtype=np.float64))
    except NotImplementedError as error:
        # AnomalyDetector.quantize's feature-test contract: detectors
        # without a quantizable graph raise NotImplementedError.
        raise CLIUsageError(
            f"{pipeline.detector.name} does not support int8 quantization: "
            f"{error}"
        ) from error
    quantized = pipeline.quantized
    # package() serves the quantized detector once one exists and embeds the
    # spec -- one packaging code path for both the int8 and final artifacts.
    pipeline.package(workdir / INT8_ARTIFACT, overwrite=True)
    # A package built before quantization no longer reflects what should
    # deploy; drop it so `stream`/`bench` fall back to the fresh int8 artifact.
    _drop_stale(workdir, PACKAGE_DIR)
    spec.save(workdir / SPEC_NAME)
    float_kb = pipeline.detector.inference_cost().parameter_bytes / 1e3
    int8_kb = quantized.inference_cost().parameter_bytes / 1e3
    print(f"quantize: {quantized.name} written to {workdir / INT8_ARTIFACT}/ "
          f"({float_kb:.0f} KB float -> {int8_kb:.0f} KB int8, "
          f"headroom {spec.quantization.headroom})")
    return 0


def _cmd_package(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    source = _serving_artifact(workdir)
    out: Path = args.out if args.out is not None else workdir / PACKAGE_DIR
    pipeline = Pipeline.load(source)
    if pipeline.spec.quantization is not None and source.name != INT8_ARTIFACT:
        # Packaging float weights under a spec that declares int8 would make
        # the artifact manifest lie about what it ships.
        raise CLIUsageError(
            "the spec enables int8 quantization but no quantized artifact "
            "exists; run `repro quantize` first (or drop the spec's "
            "'quantization' entry)"
        )
    pipeline.package(out, overwrite=True)
    fingerprint = artifact_fingerprint(out)
    # The workdir fingerprint file describes the workdir's own package/;
    # with --out the artifact lives elsewhere, so only print it.
    if args.out is None:
        (workdir / FINGERPRINT_NAME).write_text(fingerprint + "\n",
                                                encoding="utf-8")
    print(f"package: {source.name} -> {out}/ "
          f"(serving {pipeline.serving_detector.name})")
    print(f"package: fingerprint {fingerprint}")
    return 0


def _load_serving_pipeline(workdir: Path) -> Pipeline:
    """Load what was shipped, warning when spec.json has since been edited.

    The replay stages deliberately run the spec *embedded in the artifact*
    (that is what deploys); a diverged workdir spec.json means the user
    edited it without re-running the stages that would apply the edit.
    """
    source = _serving_artifact(workdir, prefer_package=True)
    pipeline = Pipeline.load(source)
    spec_path = workdir / SPEC_NAME
    if spec_path.is_file():
        try:
            workdir_spec = DeploymentSpec.load(spec_path)
        except (SpecError, OSError):
            workdir_spec = None
        if workdir_spec is not None and workdir_spec != pipeline.spec:
            print(f"note: {spec_path} differs from the spec embedded in "
                  f"{source.name}/; replaying the shipped spec (re-run "
                  f"`repro train`/`quantize`/`package` to apply the edits)",
                  file=sys.stderr)
    return pipeline


def _cmd_stream(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    pipeline = _load_serving_pipeline(workdir)
    dataset = _build_dataset(pipeline.spec)
    result = pipeline.deploy_stream(dataset.test, labels=dataset.test_labels,
                                    max_samples=args.max_samples)
    detected = int(result.alarms[np.asarray(dataset.test_labels) == 1].sum())
    false_alarms = int(result.alarms[np.asarray(dataset.test_labels) == 0].sum())
    print(f"stream: {pipeline.serving_detector.name} replayed "
          f"{result.scores.shape[0]} samples, scored {result.samples_scored} "
          f"at {result.host_inference_hz:.1f} Hz host rate")
    print(f"stream: {detected} anomalous samples alarmed, "
          f"{false_alarms} false alarms, "
          f"{len(result.adaptation_events)} adaptation events")
    return 0


#: ``repro serve`` flags that configure one process's own state and so are
#: refused -- never silently dropped -- once ``--workers``/``--tenant``
#: shards the service across worker processes.
_CLUSTER_REJECTED_FLAGS = {
    "trace_out": "tracing is per-worker state (use the trace op against an "
                 "individual worker endpoint)",
    "trace_events": "tracing is per-worker state (use the trace op against "
                    "an individual worker endpoint)",
    "alarm_log": "it runs inside a single service process; alarm events "
                 "still stream to every subscribed client connection",
}


@dataclasses.dataclass
class _ServeEndpoint:
    """What ``repro serve`` listens on and serves, single process or
    cluster: each value is the flag, else ``spec.service``'s, else the
    default."""

    host: str
    transport: Any                      #: the listener's repro.serve.Transport
    protocols: tuple
    port_file: Optional[Path]
    metrics_port: Optional[int]
    metrics_port_file: Optional[Path]
    max_seconds: Optional[float]
    alarm_log: Optional[str]
    trace_out: Optional[Path]
    #: ServiceConfig overrides on top of ``spec.service``
    service: dict
    #: worker processes behind a shard router; ``None`` = one process
    workers: Optional[int]
    #: extra tenant name -> packaged artifact (cluster mode)
    tenants: dict


def _resolve_endpoint(args: argparse.Namespace,
                      service_spec: Optional[ServiceSpec]) -> _ServeEndpoint:
    """The one place ``repro serve`` flags are read."""
    from .serve import PROTOCOLS, ServiceConfig, make_transport

    def knob(name: str, default: Any = None) -> Any:
        flag = getattr(args, name)
        if flag is not None:
            return flag
        value = getattr(service_spec, name, None)
        return default if value is None else value

    cluster_spec = getattr(service_spec, "cluster", None)
    workers = args.workers
    if workers is None and cluster_spec is not None:
        workers = cluster_spec.workers
    tenants = {}
    for entry in args.tenant or []:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise CLIUsageError(
                f"--tenant wants NAME=ARTIFACT_DIR, got {entry!r}")
        if name in tenants or name == "default":
            raise CLIUsageError(f"duplicate tenant {name!r}")
        if not (Path(path) / MANIFEST_NAME).is_file():
            raise CLIUsageError(
                f"tenant {name!r}: no artifact manifest under {path}")
        tenants[name] = Path(path)
    if tenants and workers is None:
        workers = 2
    if not tenants and (workers is None or workers <= 1):
        workers = None
    if workers is not None:
        for name, why in _CLUSTER_REJECTED_FLAGS.items():
            if getattr(args, name) is not None:
                raise CLIUsageError(
                    f"--{name.replace('_', '-')} is not supported with "
                    f"--workers: {why}")

    metrics_port = knob("metrics_port")
    overrides = {name: getattr(args, name)
                 for name in ("max_batch", "max_delay_ms", "max_queue",
                              "backpressure", "trace_events")
                 if getattr(args, name) is not None}
    if args.no_incremental:
        overrides["incremental"] = False
    # A scrape port or a trace dump needs the registry/ring behind it.
    if args.observability or metrics_port is not None \
            or args.trace_out is not None:
        overrides["observability"] = True
    host = knob("host", "127.0.0.1")
    protocol = knob("protocol", "auto")
    try:
        ServiceConfig(**overrides)      # its own validation, both modes
        transport = make_transport(
            knob("transport", "tcp"), host=host, port=knob("port", 7007),
            uds_path=knob("uds_path"))
    except (ValueError, RuntimeError) as error:
        raise CLIUsageError(str(error)) from error
    return _ServeEndpoint(
        host=host, transport=transport,
        protocols=PROTOCOLS if protocol == "auto" else (protocol,),
        port_file=args.port_file, metrics_port=metrics_port,
        metrics_port_file=args.metrics_port_file,
        max_seconds=args.max_seconds, alarm_log=knob("alarm_log"),
        trace_out=args.trace_out, service=overrides, workers=workers,
        tenants=tenants)


def _single_front(pipeline: Pipeline, endpoint: _ServeEndpoint, cleanup):
    """One process: the wire server over the packaged artifact's service."""
    from .serve import AnomalyWireServer

    config = pipeline.service_config(**endpoint.service)
    alarm_sinks = []
    if endpoint.alarm_log is not None:
        from .obs import JsonlAlarmSink

        alarm_sinks.append(JsonlAlarmSink(endpoint.alarm_log))
        cleanup.callback(alarm_sinks[0].close)
    service = pipeline.deploy_service(config=config, alarm_sinks=alarm_sinks)

    def dump_trace() -> None:
        # Whatever the bounded trace ring holds, even on ^C.
        if endpoint.trace_out is not None \
                and service.observability is not None \
                and service.observability.tracer is not None:
            service.observability.tracer.write(endpoint.trace_out)
            print(f"serve: trace written to {endpoint.trace_out}")

    cleanup.callback(dump_trace)
    detector = pipeline.serving_detector
    threshold = getattr(detector, "threshold", None)
    print(f"serve: {detector.name} (window {detector.window}, threshold "
          f"{'none' if threshold is None else format(threshold.threshold, '.6g')}) "
          f"batch<= {config.max_batch}, delay<= {config.max_delay_ms}ms, "
          f"queue<= {config.max_queue} [{config.backpressure}]"
          f"{', incremental' if config.incremental else ''}")

    def health() -> dict:
        return {
            "status": "ok",
            "fingerprint": service.artifact_fingerprint,
            "detector": getattr(service.detector, "name",
                                type(service.detector).__name__),
            "live_sessions": len(service.sessions),
        }

    server = AnomalyWireServer(service, endpoint.transport,
                               protocols=endpoint.protocols)
    return server, "ops: open/push/close/stats/ping/metrics/trace/shutdown", {
        "metrics": service.metrics_text,
        "trace": service.trace_export_json
        if config.trace_events > 0 else None,
        "health": health}


def _cluster_front(pipeline: Pipeline, endpoint: _ServeEndpoint, cleanup):
    """``--workers N``: a shard router over N worker subprocesses.

    Each worker is a full serving stack in its own process; the router
    consistent-hash-partitions ``stream_id`` across them and proxies the
    unchanged single-server wire protocol, so clients connect to one
    endpoint exactly as before.
    """
    from .cluster import (RouterConfig, ShardRouter, WorkerConfig,
                          WorkerSupervisor)

    service_spec = pipeline.spec.service
    cluster_spec = None if service_spec is None else service_spec.cluster
    worker_transport = "tcp" if cluster_spec is None \
        else cluster_spec.worker_transport
    artifacts = {"default": pipeline.artifact_dir, **endpoint.tenants}
    supervisor = WorkerSupervisor()
    cleanup.callback(supervisor.stop_all)
    print(f"serve: {pipeline.serving_detector.name} x {endpoint.workers} "
          f"workers (tenants: {'/'.join(sorted(artifacts))}; "
          f"worker transport: {worker_transport})")
    for index in range(endpoint.workers):
        handle = supervisor.spawn(WorkerConfig(
            name=f"w{index}", artifacts=dict(artifacts),
            default_tenant="default", transport=worker_transport,
            service=endpoint.service))
        print(f"serve: worker {handle.name} pid {handle.pid} "
              f"on {handle.endpoint}", flush=True)
    router = ShardRouter(
        supervisor, endpoint.transport, protocols=endpoint.protocols,
        config=RouterConfig() if cluster_spec is None
        else cluster_spec.router_config())
    return router, (f"1 router -> {endpoint.workers} workers; ops: "
                    f"open/push/close/stats/snapshot/ping/metrics/shutdown"), {
        "metrics": router.metrics_text}


async def _listen(front, endpoint: _ServeEndpoint, note: str,
                  scrape: dict) -> None:
    """Listen -> ready or early failure -> optional metrics httpd ->
    optional deadline -> stop: the life of either front door."""
    import asyncio

    from .serve import write_endpoint_file

    ready = asyncio.Event()
    task = asyncio.create_task(
        front.serve_forever(port_file=endpoint.port_file, ready=ready))
    # Wait for the listener OR an early failure (e.g. the port is taken):
    # waiting on `ready` alone would hang forever on a bind error.
    ready_task = asyncio.create_task(ready.wait())
    try:
        await asyncio.wait({task, ready_task},
                           return_when=asyncio.FIRST_COMPLETED)
    finally:
        ready_task.cancel()
    if task.done():
        await task        # propagate the startup failure
        return
    where = endpoint.transport.describe() \
        if endpoint.transport.kind == "uds" \
        else f"{endpoint.host}:{front.bound_port}"
    print(f"serve: listening on {where} "
          f"(protocols: {'/'.join(endpoint.protocols)}; {note})", flush=True)
    httpd = None
    if endpoint.metrics_port is not None:
        from .obs import ObservabilityHTTPServer

        httpd = ObservabilityHTTPServer(
            host=endpoint.host, port=endpoint.metrics_port, **scrape)
        bound = await httpd.start()
        if endpoint.metrics_port_file is not None:
            # Atomic write-then-rename: a poller never reads a
            # half-written port number.
            write_endpoint_file(endpoint.metrics_port_file, f"{bound}\n")
        print(f"serve: metrics on http://{endpoint.host}:{bound}/metrics",
              flush=True)
    if endpoint.max_seconds is not None:
        asyncio.get_running_loop().call_later(
            endpoint.max_seconds, front.request_stop)
    try:
        await task
    finally:
        if httpd is not None:
            await httpd.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the packaged artifact over the wire layer (``repro serve``)."""
    import asyncio
    import contextlib

    pipeline = _load_serving_pipeline(args.workdir)
    endpoint = _resolve_endpoint(args, pipeline.spec.service)
    with contextlib.ExitStack() as cleanup:
        try:
            build = _single_front if endpoint.workers is None \
                else _cluster_front
            front, note, scrape = build(pipeline, endpoint, cleanup)
            asyncio.run(_listen(front, endpoint, note, scrape))
        except KeyboardInterrupt:
            pass
        except OSError as error:
            raise CLIUsageError(
                f"cannot serve on {endpoint.transport.describe()}: "
                f"{error}") from error
    print("serve: stopped")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    pipeline = _load_serving_pipeline(workdir)
    dataset = _build_dataset(pipeline.spec)
    report = pipeline.evaluate(dataset.test, labels=dataset.test_labels)
    print(f"bench: {report.name} on {pipeline.spec.data.source} data "
          f"(seed {pipeline.spec.seed})")
    print(f"bench: AUC-ROC {report.auc_roc:.4f}, "
          f"AP {report.average_precision:.4f} over "
          f"{report.samples_scored} scored samples")
    for device_name, metrics in pipeline.edge_estimates().items():
        print(f"bench: {device_name}: "
              f"{metrics.inference_frequency_hz:.1f} Hz, "
              f"{metrics.power_w:.2f} W, {metrics.ram_mb:.0f} MB RAM")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    workdir: Path = args.workdir
    artifact = args.artifact if args.artifact is not None \
        else _serving_artifact(workdir, prefer_package=True)
    if not (Path(artifact) / MANIFEST_NAME).is_file():
        raise CLIUsageError(
            f"no packaged artifact at {artifact}; run `repro package` first")
    from .lifecycle import BASELINE_NAME

    pipeline = Pipeline.load(artifact)
    dataset = _build_dataset(pipeline.spec)
    baseline = pipeline.record_baseline(dataset.test)
    print(f"baseline: {baseline.detector} scored "
          f"{baseline.samples_scored} samples over {baseline.streams} "
          f"stream(s); alarm rate {baseline.alarm_rate:.4g}")
    print(f"baseline: wrote {Path(artifact) / BASELINE_NAME} "
          f"(artifact {baseline.fingerprint[:12]}…)")
    return 0


def _parse_endpoint(value: str) -> Any:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise CLIUsageError(
            f"--connect needs HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _print_report(report: dict, prefix: str = "canary") -> None:
    if "gates" not in report:           # cluster reply: one report per worker
        verdict = report.get("verdict")
        if verdict is not None:
            print(f"{prefix}: fleet verdict {verdict}")
        for worker, worker_report in sorted(
                (report.get("workers") or {}).items()):
            _print_report(worker_report, prefix=f"{prefix}[{worker}]")
        return
    print(f"{prefix}: verdict {report['verdict']} after "
          f"{report['samples']} shadow samples "
          f"({report['alarms']} alarms, {report['errors']} errors)")
    for gate in report["gates"]:
        mark = "ok" if gate["ok"] else "BREACH"
        print(f"{prefix}:   {gate['name']:<14} {gate['value']:.6g} "
              f"(limit {gate['limit']:.6g}) {mark}")


def _cmd_canary(args: argparse.Namespace) -> int:
    from .serve import TCPClient

    host, port = _parse_endpoint(args.connect)
    with TCPClient(host, port) as client:
        if args.status:
            _print_report(client.canary_status(tenant=args.tenant))
            return 0
        if args.stop:
            reply = client.canary_stop(tenant=args.tenant)
            report = reply.get("report") or reply
            print("canary: stopped")
            if isinstance(report, dict):
                _print_report(report)
            return 0
        if args.artifact is None:
            raise CLIUsageError(
                "canary needs --artifact DIR (a packaged candidate with a "
                "recorded baseline), or --status / --stop")
        reply = client.canary(
            str(args.artifact), fraction=args.fraction,
            watch=(True if args.watch else None), tenant=args.tenant)
        fingerprint = reply.get("fingerprint") or "?"
        print(f"canary: shadow-scoring candidate {fingerprint[:12]}… on "
              f"{args.fraction:.0%} of streams"
              f"{' (watcher armed on promote)' if args.watch else ''}")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from .serve import TCPClient

    host, port = _parse_endpoint(args.connect)
    with TCPClient(host, port) as client:
        if args.rollback:
            result = client.rollback(reason=args.reason, tenant=args.tenant)
            fingerprint = result.get("fingerprint") or "?"
            print(f"promote: rolled back to {fingerprint[:12]}… "
                  f"({result.get('migrated_sessions', '?')} sessions "
                  f"migrated)")
            return 0
        result = client.promote(force=args.force, tenant=args.tenant)
        report = result.get("report")
        if isinstance(report, dict):
            _print_report(report, prefix="promote")
        elif result.get("workers"):
            _print_report({"workers": {
                worker: detail.get("report", {})
                for worker, detail in result["workers"].items()
                if isinstance(detail, dict)}}, prefix="promote")
        if result.get("promoted"):
            fingerprint = result.get("fingerprint") or "?"
            print(f"promote: promoted {fingerprint[:12]}… "
                  f"({result.get('migrated_sessions', '?')} sessions "
                  f"migrated)")
            return 0
        print("promote: gates held the promotion back "
              "(re-run with --force to override)")
        return 1
    return 0


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproducible VARADE deployment pipeline "
                    "(spec -> train -> quantize -> package -> serve).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workdir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workdir", type=Path, default=Path("runs/default"),
                       help="pipeline working directory (default: runs/default)")

    train = sub.add_parser("train", help="fit + calibrate per the spec, "
                                         "save the float artifact")
    add_workdir(train)
    source = train.add_mutually_exclusive_group()
    source.add_argument("--spec", type=Path, help="deployment spec JSON file")
    source.add_argument("--fast", action="store_true",
                        help="use the built-in tiny synthetic spec")
    train.add_argument("--seed", type=int, default=None,
                       help="override the spec's master seed")
    train.set_defaults(func=_cmd_train)

    quantize = sub.add_parser("quantize", help="int8-quantize the trained "
                                               "float artifact")
    add_workdir(quantize)
    quantize.add_argument("--headroom", type=float, default=None,
                          help="activation-range headroom (default: spec's, "
                               "else 2.0)")
    quantize.set_defaults(func=_cmd_quantize)

    package = sub.add_parser("package", help="produce the deployable package "
                                             "(int8 artifact when present)")
    add_workdir(package)
    package.add_argument("--out", type=Path, default=None,
                         help="package output dir (default: WORKDIR/package)")
    package.set_defaults(func=_cmd_package)

    stream = sub.add_parser("stream", help="replay the spec's test stream "
                                           "through the streaming runtime")
    add_workdir(stream)
    stream.add_argument("--max-samples", type=int, default=None,
                        help="limit how many samples are scored")
    stream.set_defaults(func=_cmd_stream)

    bench = sub.add_parser("bench", help="AUC + edge estimates of the "
                                         "packaged detector")
    add_workdir(bench)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser("serve", help="serve the packaged detector over "
                                         "the wire layer (repro.serve)")
    add_workdir(serve)
    serve.add_argument("--host", default=None,
                       help="bind address (default: spec's service.host, "
                            "else 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port, 0 = ephemeral (default: spec's "
                            "service.port, else 7007)")
    serve.add_argument("--transport", default=None, choices=("tcp", "uds"),
                       help="listener transport: TCP or a Unix-domain socket "
                            "(default: spec's service.transport, else tcp)")
    serve.add_argument("--uds-path", type=Path, default=None,
                       help="Unix socket path (required with --transport uds)")
    serve.add_argument("--protocol", default=None,
                       choices=("auto", "json", "binary"),
                       help="accepted wire protocol(s); auto negotiates "
                            "JSON vs binary per connection from its first "
                            "byte (default: spec's service.protocol, else auto)")
    serve.add_argument("--port-file", type=Path, default=None,
                       help="write the bound endpoint (TCP port or UDS path) "
                            "to this file once listening")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="micro-batch size bound (default: spec's, else 32)")
    serve.add_argument("--max-delay-ms", type=float, default=None,
                       help="latency budget before a partial batch flushes "
                            "(default: spec's, else 5.0)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="per-session pending-window bound "
                            "(default: spec's, else 256)")
    serve.add_argument("--backpressure", default=None,
                       choices=BACKPRESSURE_POLICIES,
                       help="full-queue policy (default: spec's, else block)")
    serve.add_argument("--no-incremental", action="store_true",
                       help="disable the O(1)-per-sample incremental scoring "
                            "lane; sessions use batched scoring only")
    serve.add_argument("--workers", type=int, default=None,
                       help="shard across N worker subprocesses behind a "
                            "consistent-hash router (one endpoint, "
                            "unchanged protocol); default 1, or "
                            "spec.service.cluster.workers when set")
    serve.add_argument("--tenant", action="append", metavar="NAME=DIR",
                       help="serve an extra packaged artifact under tenant "
                            "NAME on every worker (repeatable; implies "
                            "cluster mode; `open` frames pick the tenant "
                            "by name or artifact fingerprint)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop the server after this long (smoke flows)")
    serve.add_argument("--observability", action="store_true",
                       help="enable the repro.obs metrics registry and trace "
                            "ring (also implied by --metrics-port and "
                            "--trace-out); adds the metrics/trace wire ops")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve GET /metrics (Prometheus text format), "
                            "/trace and /healthz on this plain-HTTP port; "
                            "0 = ephemeral (default: spec's "
                            "service.metrics_port, else off)")
    serve.add_argument("--metrics-port-file", type=Path, default=None,
                       help="write the bound metrics port to this file once "
                            "scrapeable (for --metrics-port 0)")
    serve.add_argument("--trace-events", type=int, default=None,
                       help="bound the Chrome-trace event ring; 0 disables "
                            "tracing (default: spec's, else 4096)")
    serve.add_argument("--trace-out", type=Path, default=None,
                       help="write the Chrome/Perfetto trace JSON here on "
                            "shutdown (implies --observability; open at "
                            "https://ui.perfetto.dev)")
    serve.add_argument("--alarm-log", type=Path, default=None,
                       help="append every alarm as one JSON line to this "
                            "file (default: spec's service.alarm_log, "
                            "else off)")
    serve.set_defaults(func=_cmd_serve)

    baseline = sub.add_parser(
        "baseline", help="record the packaged artifact's golden baseline "
                         "(score/latency/alarm statistics) from the spec's "
                         "test traffic")
    add_workdir(baseline)
    baseline.add_argument("--artifact", type=Path, default=None,
                          help="packaged artifact directory (default: the "
                               "workdir's serving artifact)")
    baseline.set_defaults(func=_cmd_baseline)

    canary = sub.add_parser(
        "canary", help="attach / inspect a canary on a running server "
                       "(shadow-scores a candidate on live traffic)")
    canary.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="serving endpoint to control")
    canary.add_argument("--artifact", type=Path, default=None,
                        help="candidate packaged artifact (server-side "
                             "path; needs a recorded baseline)")
    canary.add_argument("--fraction", type=float, default=0.25,
                        help="fraction of streams to shadow (default 0.25)")
    canary.add_argument("--watch", action="store_true",
                        help="arm the health meta-watcher on promotion "
                             "(auto-rollback on regression)")
    canary.add_argument("--status", action="store_true",
                        help="evaluate the attached canary's gates")
    canary.add_argument("--stop", action="store_true",
                        help="detach the canary without promoting")
    canary.add_argument("--tenant", default=None,
                        help="tenant name on a multi-tenant server")
    canary.set_defaults(func=_cmd_canary)

    promote = sub.add_parser(
        "promote", help="promote the attached canary's candidate "
                        "(zero-downtime hot-swap), or --rollback")
    promote.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="serving endpoint to control")
    promote.add_argument("--force", action="store_true",
                         help="swap even when the gates say reject")
    promote.add_argument("--rollback", action="store_true",
                         help="swap back to the pinned previous artifact")
    promote.add_argument("--reason", default="manual",
                         help="rollback reason for the audit trail")
    promote.add_argument("--tenant", default=None,
                         help="tenant name on a multi-tenant server")
    promote.set_defaults(func=_cmd_promote)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (SpecError, SerializationError, PipelineStageError,
            CLIUsageError, LifecycleError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, RuntimeError) as error:
        # Wire-control commands (canary/promote) talk to a live server;
        # a refused op or a dead endpoint is a user-facing error, not a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
