"""Cluster building blocks, each tested in isolation.

Session handoff (export/import round trips), fleet stats and metrics-page
merging, the worker supervisor and its one-JSON-document config hop, and
multi-tenant serving on the wire server -- the
end-to-end parity suite (``test_cluster_parity.py``) then proves the
composition.
"""

import asyncio
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.cluster import (ClusterStats, ShardRouter, WorkerConfig,
                           WorkerSupervisor)
from repro.cluster.worker import argument_parser as worker_argument_parser
from repro.cluster.worker import build_worker_server
from repro.cluster.worker import main as worker_main
from repro.edge import StreamingHistogram
from repro.obs import merge_metrics_pages
from repro.pipeline import Pipeline
from repro.serialize import artifact_fingerprint
from repro.serve import (BACKPRESSURE_POLICIES, AnomalyWireServer,
                         BinaryClient, ServiceConfig, ServiceStats, TCPClient,
                         TCPTransport)

from cluster_helpers import N_CHANNELS, worker_config


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _stats(samples: int, *, delays=(), alarms: int = 0) -> ServiceStats:
    queue_delay = StreamingHistogram.log_spaced(1e-6, 60.0)
    queue_delay.extend(delays)
    occupancy = StreamingHistogram.linear(0.0, 1.0, 10)
    return ServiceStats(
        sessions_opened=1, sessions_closed=1, live_sessions=0,
        samples_pushed=samples, samples_scored=samples, samples_dropped=0,
        flushes=1, scoring_time_s=0.1, alarms_total=alarms,
        queue_delay_histogram=queue_delay, occupancy_histogram=occupancy)


def _snapshot(stats_by_tenant) -> dict:
    return {"services": {tenant: {"fingerprint": None,
                                  "stats": stats.to_dict()}
                         for tenant, stats in stats_by_tenant.items()}}


class WireServerThread:
    """Run an AnomalyWireServer on an ephemeral port."""

    def __init__(self, server_factory):
        self._factory = server_factory
        self.server = None
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = self._factory()
            ready = asyncio.Event()
            task = asyncio.create_task(self.server.serve_forever(ready=ready))
            await ready.wait()
            self.port = self.server.bound_port
            self._ready.set()
            await task

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(60.0), "wire server did not come up"
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            try:
                with TCPClient(port=self.port, timeout_s=5.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                self.server.request_stop()
            self._thread.join(30.0)


# --------------------------------------------------------------------------- #
# fleet stats merging
# --------------------------------------------------------------------------- #
class TestClusterStats:
    def test_counters_sum_and_histograms_merge(self):
        snapshots = {
            "w0": _snapshot({"default": _stats(100, delays=[1e-4] * 10,
                                               alarms=3)}),
            "w1": _snapshot({"default": _stats(40, delays=[1e-2] * 10,
                                               alarms=1)}),
        }
        merged = ClusterStats.from_snapshots(snapshots)
        assert merged.workers == 2
        assert merged.total.samples_pushed == 140
        assert merged.total.alarms_total == 4
        assert merged.total.sessions_opened == 2
        # fleet p99 comes from the combined distribution: with half the
        # samples at 1e-2 it must sit in the slow mode, not between modes
        assert merged.total.queue_delay_histogram.count == 20
        assert merged.total.queue_delay_p99_s == pytest.approx(1e-2, rel=0.5)
        assert merged.per_worker["w0"].samples_pushed == 100
        assert merged.per_worker["w1"].samples_pushed == 40

    def test_tenants_aggregate_across_workers(self):
        snapshots = {
            "w0": _snapshot({"alpha": _stats(10), "beta": _stats(20)}),
            "w1": _snapshot({"alpha": _stats(5)}),
        }
        merged = ClusterStats.from_snapshots(snapshots)
        assert merged.tenants["alpha"].samples_pushed == 15
        assert merged.tenants["beta"].samples_pushed == 20
        assert merged.total.samples_pushed == 35

    def test_empty_fleet_reports_zeros(self):
        merged = ClusterStats.from_snapshots({})
        assert merged.workers == 0
        assert merged.total.samples_pushed == 0
        assert merged.total.queue_delay_p99_s == 0.0

    def test_service_stats_dict_round_trip_is_exact(self):
        stats = _stats(17, delays=[1e-3, 2e-3, 5e-1], alarms=2)
        back = ServiceStats.from_dict(stats.to_dict())
        assert back.to_dict() == stats.to_dict()
        # The snapshot wire schema: every field, counters before histograms.
        assert list(stats.to_dict()) == [
            "sessions_opened", "sessions_closed", "live_sessions",
            "samples_pushed", "samples_scored", "samples_dropped", "flushes",
            "scoring_time_s", "alarms_total", "sessions_exported",
            "sessions_imported", "queue_delay_histogram",
            "occupancy_histogram"]
        assert back.queue_delay_p99_s == stats.queue_delay_p99_s
        assert back.mean_batch_size == stats.mean_batch_size


class TestMergeMetricsPages:
    PAGE_A = (
        "# HELP repro_service_samples_pushed_total Samples pushed.\n"
        "# TYPE repro_service_samples_pushed_total counter\n"
        "repro_service_samples_pushed_total 100\n"
        "# TYPE repro_service_queue_delay_seconds summary\n"
        "repro_service_queue_delay_seconds{quantile=\"0.99\"} 0.5\n"
        "repro_service_queue_delay_seconds_sum 1.5\n"
        "repro_service_queue_delay_seconds_count 10\n"
        "# TYPE repro_service_ops_total counter\n"
        "repro_service_ops_total{op=\"push\"} 7\n"
    )
    PAGE_B = (
        "# HELP repro_service_samples_pushed_total Samples pushed.\n"
        "# TYPE repro_service_samples_pushed_total counter\n"
        "repro_service_samples_pushed_total 40\n"
        "# TYPE repro_service_queue_delay_seconds summary\n"
        "repro_service_queue_delay_seconds{quantile=\"0.99\"} 2.0\n"
        "repro_service_queue_delay_seconds_sum 0.5\n"
        "repro_service_queue_delay_seconds_count 4\n"
        "# TYPE repro_service_ops_total counter\n"
        "repro_service_ops_total{op=\"push\"} 3\n"
        "repro_service_ops_total{op=\"open\"} 2\n"
    )

    def test_counters_sum_per_labelset(self):
        page = merge_metrics_pages([self.PAGE_A, self.PAGE_B])
        assert "repro_service_samples_pushed_total 140\n" in page
        assert 'repro_service_ops_total{op="push"} 10' in page
        assert 'repro_service_ops_total{op="open"} 2' in page

    def test_summary_quantiles_take_the_max_but_sum_count(self):
        """The true fleet quantile is unrecoverable from per-worker
        quantiles; the merged page must report the conservative max while
        still summing the _sum/_count series exactly."""
        page = merge_metrics_pages([self.PAGE_A, self.PAGE_B])
        assert 'repro_service_queue_delay_seconds{quantile="0.99"} 2\n' \
            in page
        assert "repro_service_queue_delay_seconds_sum 2\n" in page
        assert "repro_service_queue_delay_seconds_count 14\n" in page

    def test_headers_emitted_once(self):
        page = merge_metrics_pages([self.PAGE_A, self.PAGE_B])
        assert page.count("# TYPE repro_service_samples_pushed_total") == 1
        assert page.count("# HELP repro_service_samples_pushed_total") == 1

    def test_empty_input(self):
        assert merge_metrics_pages([]) == ""
        assert merge_metrics_pages([""]) == ""


# --------------------------------------------------------------------------- #
# session export / import
# --------------------------------------------------------------------------- #
class TestSessionHandoff:
    def _deploy(self, artifact):
        return Pipeline.load(artifact).deploy_service(
            config=ServiceConfig(max_batch=8, max_delay_ms=1.0))

    @staticmethod
    async def _collector(service, out):
        async for alarm in service.alarms():
            out.append((alarm.index, float(alarm.score)))

    async def _watch(self, service, out):
        task = asyncio.create_task(self._collector(service, out))
        await asyncio.sleep(0.01)       # let the subscription register
        return task

    def test_export_import_continues_bit_identically(self, artifact):
        """A session exported mid-stream and imported into a *different*
        service process must score the remaining samples exactly as an
        uninterrupted session would -- the rebalance correctness core."""
        rng = np.random.default_rng(11)
        data = rng.normal(size=(60, N_CHANNELS))

        async def uninterrupted():
            alarms = []
            async with self._deploy(artifact) as service:
                task = await self._watch(service, alarms)
                await service.open_session("s")
                for row in data:
                    await service.push("s", row)
                session = await service.close_session("s")
                await asyncio.sleep(0.1)
                task.cancel()
            return alarms, session.samples_pushed, session.samples_scored

        async def handed_off():
            alarms = []
            async with self._deploy(artifact) as donor, \
                    self._deploy(artifact) as receiver:
                tasks = [await self._watch(donor, alarms),
                         await self._watch(receiver, alarms)]
                await donor.open_session("s")
                for row in data[:30]:
                    await donor.push("s", row)
                blob = await donor.export_session("s")
                assert isinstance(blob, bytes)
                await receiver.import_session(blob)
                for row in data[30:]:
                    await receiver.push("s", row)
                session = await receiver.close_session("s")
                await asyncio.sleep(0.1)
                for task in tasks:
                    task.cancel()
                assert donor.stats().sessions_exported == 1
                assert receiver.stats().sessions_imported == 1
            return alarms, session.samples_pushed, session.samples_scored

        base_alarms, base_pushed, base_scored = asyncio.run(uninterrupted())
        moved_alarms, moved_pushed, moved_scored = asyncio.run(handed_off())
        assert base_alarms, "seed produced no alarms; the parity check is void"
        assert sorted(moved_alarms) == sorted(base_alarms)
        # the imported session keeps its cumulative per-stream counters
        assert moved_pushed == base_pushed
        assert moved_scored == base_scored

    def test_base_server_refuses_handoff_ops(self, artifact):
        """export/import deserialise pickled session state, so they are
        cluster-internal: a stock server must reject them outright."""
        service = self._deploy(artifact)
        with WireServerThread(lambda: AnomalyWireServer(
                service, TCPTransport("127.0.0.1", 0))) as server:
            with BinaryClient(port=server.port) as client:
                client.open("s")
                with pytest.raises(RuntimeError, match="handoff is disabled"):
                    client.export_session("s")
                with pytest.raises(RuntimeError, match="handoff is disabled"):
                    client.import_session("default", "AAAA")


# --------------------------------------------------------------------------- #
# worker supervisor
# --------------------------------------------------------------------------- #
class TestWorkerSupervisor:
    def test_spawn_handshake_respawn_and_stop(self, artifact):
        with WorkerSupervisor() as supervisor:
            handle = supervisor.spawn(worker_config("w0", artifact))
            assert supervisor.alive("w0")
            port = int(handle.endpoint)
            with BinaryClient(port=port) as client:
                assert client.ping()["ok"]
            os.kill(handle.pid, signal.SIGKILL)
            handle.process.wait(timeout=30)
            assert not supervisor.alive("w0")
            respawned = supervisor.respawn("w0")
            assert respawned.restarts == 1
            assert respawned.pid != handle.pid
            assert supervisor.alive("w0")
            with BinaryClient(port=int(respawned.endpoint)) as client:
                assert client.ping()["ok"]
            supervisor.stop("w0")
            assert not supervisor.alive("w0")

    @pytest.mark.parametrize("policy", BACKPRESSURE_POLICIES)
    def test_worker_config_survives_the_process_boundary(self, tmp_path,
                                                         policy):
        """The supervisor -> worker hop is one JSON document: every field
        (paths, the uds path, every ServiceConfig override) must come out
        of the worker's parser exactly as the supervisor put it in.
        (Successor of the flag-by-flag parity test: the worker's
        ``--backpressure`` choices once spelled ``"reject"`` as ``"error"``
        and the spawned workers died in argparse.)"""
        config = WorkerConfig(
            name="w0", artifacts={"default": tmp_path, "b": tmp_path / "b"},
            default_tenant="b", transport="uds", host="127.0.0.2", port=7,
            uds_path=tmp_path / "w0.sock",
            service={"max_batch": 8, "max_delay_ms": 2.0, "max_queue": 16,
                     "backpressure": policy, "incremental": False})
        assert WorkerConfig.from_json(config.to_json()) == config
        with WorkerSupervisor(run_dir=tmp_path) as supervisor:
            command = supervisor._command(config, tmp_path / "w0.port")
        flags = command[command.index("repro.cluster.worker") + 1:]
        args = worker_argument_parser().parse_args(flags)
        assert set(vars(args)) == {"config", "port_file"}
        assert args.port_file == tmp_path / "w0.port"
        assert WorkerConfig.from_json(args.config) == config

    def test_supervisor_fills_in_the_uds_path(self, tmp_path):
        config = WorkerConfig(name="w0", artifacts={"default": tmp_path},
                              transport="uds")
        with WorkerSupervisor(run_dir=tmp_path) as supervisor:
            command = supervisor._command(config, tmp_path / "w0.port")
        spawned = WorkerConfig.from_json(command[command.index("--config") + 1])
        assert spawned.uds_path == tmp_path / "w0.sock"

    @pytest.mark.parametrize("override, named", [
        ({"max_bacth": 8}, "max_bacth"),
        ({"backpressure": "error"}, "'error'"),
        ({"max_queue": 0}, "max_queue"),
    ])
    def test_worker_rejects_a_bad_service_override(self, artifact, capsys,
                                                   override, named):
        """ServiceConfig itself validates the overrides, on both sides of
        the hop: the config object refuses them, and a document that got
        past it anyway ends in the worker's usage error, not a traceback."""
        with pytest.raises(ValueError, match=named):
            WorkerConfig(name="w0", artifacts={"default": artifact},
                         service=override)
        document = WorkerConfig(name="w0", artifacts={"default": artifact})
        text = document.to_json().replace(
            '"service": {}', '"service": ' + json.dumps(override))
        with pytest.raises(SystemExit) as exit_info:
            worker_main(["--config", text])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    def test_worker_applies_overrides_on_top_of_the_artifact_spec(
            self, artifact):
        """What `repro serve` resolves is what every worker runs: the
        overrides win, everything else is the artifact's own
        spec.service (tiny_spec: max_batch 8, max_delay_ms 2.0)."""
        overrides = {"max_batch": 4, "max_queue": 32,
                     "backpressure": "reject", "incremental": False}
        server = build_worker_server(WorkerConfig(
            name="w0", artifacts={"default": artifact}, service=overrides))
        single = Pipeline.load(artifact).service_config(**overrides)
        config = server.service.config
        for knob in ("max_batch", "max_delay_ms", "max_queue",
                     "backpressure", "incremental"):
            assert getattr(config, knob) == getattr(single, knob)
        assert config.max_delay_ms == 2.0
        assert config.observability and server.allow_handoff

    def test_worker_config_validation(self, artifact):
        with pytest.raises(ValueError):
            WorkerConfig(name="w0", artifacts={})
        with pytest.raises(ValueError):
            WorkerConfig(name="w0", artifacts={"default": artifact},
                         transport="carrier-pigeon")
        with pytest.raises(ValueError):
            WorkerConfig(name="w0",
                         artifacts={"a": artifact, "b": artifact},
                         default_tenant="missing")


# --------------------------------------------------------------------------- #
# the router's front door
# --------------------------------------------------------------------------- #
class TestRouterProtocols:
    def test_binary_only_router_refuses_a_json_client(self, artifact):
        """`repro serve --workers N --protocol binary` used to serve JSON
        clients anyway: the router had no ``protocols`` to restrict."""
        with WorkerSupervisor() as supervisor:
            supervisor.spawn(worker_config("w0", artifact))
            with WireServerThread(lambda: ShardRouter(
                    supervisor, TCPTransport("127.0.0.1", 0),
                    protocols=("binary",))) as router:
                with TCPClient(port=router.port) as client:
                    refusal = client.request({"op": "ping"})
                    assert not refusal["ok"]
                    assert "the json protocol is disabled on this server" \
                        in refusal["error"]
                    with pytest.raises(ConnectionError):
                        client.request({"op": "ping"})
                with BinaryClient(port=router.port) as client:
                    assert client.open("s")["ok"]
                    assert client.close_stream("s")["samples_pushed"] == 0
                    client.shutdown()

    def test_router_validates_its_protocols(self, artifact):
        with WorkerSupervisor() as supervisor:
            supervisor.spawn(worker_config("w0", artifact))
            for bad in ((), ("carrier-pigeon",)):
                with pytest.raises(ValueError, match="protocols"):
                    ShardRouter(supervisor, TCPTransport("127.0.0.1", 0),
                                protocols=bad)


# --------------------------------------------------------------------------- #
# multi-tenant serving on the wire server
# --------------------------------------------------------------------------- #
class TestWireServerTenants:
    @staticmethod
    def _services(artifact, second_artifact, **config):
        config = ServiceConfig(max_batch=8, max_delay_ms=1.0, **config)
        return {"alpha": Pipeline.load(artifact).deploy_service(config=config),
                "beta": Pipeline.load(second_artifact).deploy_service(
                    config=config)}

    @pytest.fixture()
    def tenant_server(self, artifact, second_artifact):
        def factory():
            return AnomalyWireServer(
                self._services(artifact, second_artifact, observability=True),
                TCPTransport("127.0.0.1", 0), default_tenant="alpha")
        with WireServerThread(factory) as server:
            yield server

    def test_open_resolves_tenant_name_and_fingerprint(
            self, tenant_server, second_artifact):
        rng = np.random.default_rng(2)
        with BinaryClient(port=tenant_server.port) as client:
            assert client.open("a1")["ok"]                  # default tenant
            assert client.open("b1", tenant="beta")["ok"]
            fingerprint = artifact_fingerprint(second_artifact)
            assert client.open("b2", tenant=fingerprint)["ok"]
            for stream in ("a1", "b1", "b2"):
                client.push_stream(stream, rng.normal(size=(12, N_CHANNELS)))
                assert client.close_stream(stream)["samples_pushed"] == 12
            # stats answer with the merge across both hosted tenants
            assert client.stats()["samples_pushed"] == 36
            snapshot = client.snapshot()
            assert set(snapshot["services"]) == {"alpha", "beta"}
            assert snapshot["services"]["beta"]["fingerprint"] == fingerprint
            per_tenant = {tenant: entry["stats"]["samples_pushed"]
                          for tenant, entry in snapshot["services"].items()}
            assert per_tenant == {"alpha": 12, "beta": 24}

    def test_metrics_page_is_the_merge_of_the_tenants(self, tenant_server):
        rng = np.random.default_rng(3)
        with BinaryClient(port=tenant_server.port) as client:
            client.push_stream("a", rng.normal(size=(10, N_CHANNELS)))
            client.open("b", tenant="beta")
            client.push_stream("b", rng.normal(size=(5, N_CHANNELS)))
            page = client.metrics()
        assert "repro_service_samples_pushed_total 15\n" in page
        assert page.count("# TYPE repro_service_samples_pushed_total") == 1

    def test_unknown_tenant_is_a_clean_error(self, tenant_server):
        with BinaryClient(port=tenant_server.port) as client:
            with pytest.raises(RuntimeError, match="alpha"):
                client.open("s", tenant="nope")
            assert client.ping()["ok"], "the connection must survive"

    def test_no_default_tenant_means_the_key_is_required(
            self, artifact, second_artifact):
        def factory():
            return AnomalyWireServer(self._services(artifact, second_artifact),
                                     TCPTransport("127.0.0.1", 0))
        with WireServerThread(factory) as server:
            assert server.server.default_tenant is None
            with TCPClient(port=server.port) as client:
                with pytest.raises(RuntimeError, match="has no default"):
                    client.open("s")
                with pytest.raises(RuntimeError, match="has no default"):
                    client.push("s", [0.0] * N_CHANNELS)
                assert client.open("s", tenant="beta")["ok"]
                # later ops on the stream need no key: the index has it
                assert client.push("s", [0.0] * N_CHANNELS)["accepted"] == 1
                assert client.close_stream("s")["samples_pushed"] == 1

    def test_constructor_rejects_an_unhosted_default(self, artifact,
                                                     second_artifact):
        with pytest.raises(ValueError, match="not hosted"):
            AnomalyWireServer(self._services(artifact, second_artifact),
                              TCPTransport("127.0.0.1", 0),
                              default_tenant="gamma")
        with pytest.raises(ValueError, match="at least one service"):
            AnomalyWireServer({}, TCPTransport("127.0.0.1", 0))
