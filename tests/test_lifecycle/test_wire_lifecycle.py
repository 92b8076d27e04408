"""Lifecycle over the wire: alarm fingerprints, control ops, cluster fan-out."""

import asyncio
import threading
import time

import pytest

from repro.cluster import ClusterHarness, WorkerConfig
from repro.pipeline import Pipeline
from repro.serialize import artifact_fingerprint
from repro.serve import (PROTOCOLS, AnomalyTCPServer, BinaryClient,
                         ServiceConfig, TCPClient)
from repro.serve import wire

from lifecycle_helpers import make_stream

GATES = {"min_samples": 32, "alarm_rate_slack": 0.02}


class TestAlarmEventFrame:
    def test_round_trips_with_fingerprint(self):
        frame = wire.AlarmEvent("cell-1", 42, 3.25, 1.5, "fp-abc123")
        decoded, consumed = wire.decode_frame(wire.encode(frame))
        assert consumed == len(wire.encode(frame))
        assert decoded == frame
        assert decoded.fingerprint == "fp-abc123"

    def test_round_trips_without_fingerprint(self):
        frame = wire.AlarmEvent("cell-1", 42, 3.25, None)
        decoded, _ = wire.decode_frame(wire.encode(frame))
        assert decoded == frame
        assert decoded.fingerprint is None

    def test_fingerprintless_encoding_matches_prelifecycle_layout(self):
        """A fingerprint-less frame is byte-identical to the old format:
        stream string + the fixed ALARM tail, nothing trailing."""
        frame = wire.AlarmEvent("s", 7, 2.0, 0.5)
        payload = frame.encode_payload()
        legacy = wire.AlarmEvent("s", 7, 2.0, 0.5, "fp").encode_payload()
        assert len(legacy) > len(payload)
        assert legacy[:len(payload)] == payload

    def test_trailing_garbage_raises(self):
        payload = wire.AlarmEvent("s", 7, 2.0, 0.5, "fp").encode_payload()
        with pytest.raises(wire.CorruptPayloadError):
            wire.AlarmEvent.decode_payload(payload + b"\x00")


class LifecycleServer:
    """A wire server over ``Pipeline.load(artifact).deploy_service()``.

    Unlike the generic server helper in the serve suite, the service keeps
    the artifact's fingerprint and calibrated threshold, so lifecycle ops
    see exactly what ``repro serve`` would give them.
    """

    def __init__(self, artifact, protocols=PROTOCOLS):
        self.service = Pipeline.load(artifact).deploy_service(
            config=ServiceConfig(max_batch=8, max_delay_ms=1.0))
        self.server = AnomalyTCPServer(self.service, port=0,
                                       protocols=protocols)
        self._ready = threading.Event()
        self.port = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(self.server.serve_forever(ready=ready))
            await ready.wait()
            self.port = self.server.bound_port
            self._ready.set()
            await task

        asyncio.run(main())

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(30.0), "server did not come up"
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            try:
                # Binary: the one protocol every server in this suite takes.
                with BinaryClient(port=self.port, timeout_s=5.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
        self.thread.join(10.0)
        assert not self.thread.is_alive(), "server thread did not exit"


def push_baseline_traffic(client):
    """The exact traffic artifact_b's golden baseline was recorded on."""
    for stream, (length, seed) in {"s50": (80, 50), "s51": (60, 51)}.items():
        client.open(stream)
        client.push_stream(stream, make_stream(length, seed=seed))
    for stream in ("s50", "s51"):
        client.close_stream(stream)


both_clients = pytest.mark.parametrize(
    "client_cls", [TCPClient, BinaryClient], ids=["json", "binary"])


class TestServerOps:
    @both_clients
    def test_canary_promote_rollback_over_the_wire(self, artifact_a,
                                                   artifact_b, client_cls):
        fp_a = artifact_fingerprint(artifact_a)
        fp_b = artifact_fingerprint(artifact_b)
        with LifecycleServer(artifact_a) as server:
            with client_cls(port=server.port) as client:
                attached = client.canary(str(artifact_b), fraction=1.0,
                                         gates=GATES)
                assert attached["fingerprint"] == fp_b
                assert attached["gates"]["min_samples"] == 32
                assert client.canary_status()["verdict"] == "undecided"
                push_baseline_traffic(client)
                report = client.canary_status()
                assert report["verdict"] == "promote", report
                promoted = client.promote()
                assert promoted["promoted"]
                assert promoted["fingerprint"] == fp_b
                assert promoted["previous_fingerprint"] == fp_a
                assert promoted["migrated_sessions"] == 0  # streams closed
                rolled = client.rollback(reason="test")
                assert rolled["rolled_back"]
                assert rolled["fingerprint"] == fp_a

    @both_clients
    def test_gated_promote_refuses_an_undecided_canary(self, artifact_a,
                                                       artifact_b,
                                                       client_cls):
        fp_a = artifact_fingerprint(artifact_a)
        with LifecycleServer(artifact_a) as server:
            with client_cls(port=server.port) as client:
                client.canary(str(artifact_b), fraction=1.0,
                              gates={"min_samples": 100_000})
                push_baseline_traffic(client)
                result = client.promote()
                assert not result["promoted"]
                assert result["report"]["verdict"] == "undecided"
                assert result["fingerprint"] == fp_a
                # ... but force wins, and canary_stop afterwards errors
                # because promotion already detached the canary.
                assert client.promote(force=True)["promoted"]
                with pytest.raises(RuntimeError, match="no canary"):
                    client.canary_stop()

    @both_clients
    def test_canary_stop_detaches_and_reports(self, artifact_a, artifact_b,
                                              client_cls):
        with LifecycleServer(artifact_a) as server:
            with client_cls(port=server.port) as client:
                client.canary(str(artifact_b), fraction=1.0, gates=GATES)
                push_baseline_traffic(client)
                stopped = client.canary_stop()
                assert stopped["report"]["samples"] > 0
                with pytest.raises(RuntimeError, match="no canary"):
                    client.canary_status()

    @both_clients
    def test_lifecycle_ops_without_a_canary_error(self, artifact_a,
                                                  client_cls):
        with LifecycleServer(artifact_a) as server:
            with client_cls(port=server.port) as client:
                with pytest.raises(RuntimeError, match="no canary"):
                    client.promote()
                with pytest.raises(RuntimeError, match="no pinned"):
                    client.rollback()
                with pytest.raises(RuntimeError, match="no such file|no golden|does not exist|artifact"):
                    client.canary("/nonexistent/artifact")

    def test_a_binary_only_listener_can_be_canaried(self, artifact_a,
                                                    artifact_b):
        """The production ingest socket (``--protocol binary``) takes the
        whole lifecycle: attach, judge, force-promote, roll back."""
        fp_a = artifact_fingerprint(artifact_a)
        fp_b = artifact_fingerprint(artifact_b)
        with LifecycleServer(artifact_a, protocols=("binary",)) as server:
            with BinaryClient(port=server.port) as client:
                attached = client.canary(str(artifact_b), fraction=1.0,
                                         gates=GATES, watch=True)
                assert attached["fingerprint"] == fp_b
                assert client.canary_status()["verdict"] == "undecided"
                assert not client.promote()["promoted"]
                assert client.promote(force=True)["fingerprint"] == fp_b
                assert client.rollback()["fingerprint"] == fp_a

    def test_fingerprint_tenant_key_follows_the_served_artifact(
            self, artifact_a, artifact_b):
        """A fingerprint addresses whatever tenant serves that artifact
        *now*: after a promote the candidate's fingerprint opens streams
        and the replaced one's no longer does; a rollback swaps them back."""
        fp_a = artifact_fingerprint(artifact_a)
        fp_b = artifact_fingerprint(artifact_b)
        with LifecycleServer(artifact_a) as server:
            with TCPClient(port=server.port) as client:
                assert client.open("s1", tenant=fp_a)["ok"]
                with pytest.raises(RuntimeError, match="unknown tenant"):
                    client.open("s2", tenant=fp_b)
                client.canary(str(artifact_b), fraction=1.0, tenant=fp_a)
                assert client.promote(force=True, tenant=fp_a)["promoted"]
                assert client.open("s2", tenant=fp_b)["ok"]
                with pytest.raises(RuntimeError, match="unknown tenant"):
                    client.open("s3", tenant=fp_a)
                assert client.snapshot()["services"]["default"][
                    "fingerprint"] == fp_b
                assert client.rollback(tenant=fp_b)["fingerprint"] == fp_a
                assert client.open("s3", tenant=fp_a)["ok"]

    def test_wire_alarms_carry_the_fingerprint(self, artifact_a):
        fp_a = artifact_fingerprint(artifact_a)
        data = make_stream(40, seed=60)
        data[20:24] += 30.0    # unmistakable burst
        with LifecycleServer(artifact_a) as server:
            with TCPClient(port=server.port) as client:
                client.open("cell")
                client.push_stream("cell", data)
                client.close_stream("cell")
                for _ in range(100):
                    if client.alarms:
                        break
                    client.ping()
                    time.sleep(0.01)
                assert client.alarms, "expected alarms over the wire"
                for alarm in client.alarms:
                    assert alarm["fingerprint"] == fp_a

    def test_snapshot_and_healthz_fingerprint(self, artifact_a):
        fp_a = artifact_fingerprint(artifact_a)
        with LifecycleServer(artifact_a) as server:
            with TCPClient(port=server.port) as client:
                snapshot = client.snapshot()
                (entry,) = snapshot["services"].values()
                assert entry["fingerprint"] == fp_a


class TestClusterLifecycle:
    def test_fleet_canary_status_and_forced_promotion(self, artifact_a,
                                                      artifact_b):
        fp_b = artifact_fingerprint(artifact_b)
        configs = [WorkerConfig(name=f"w{i}",
                                artifacts={"default": artifact_a})
                   for i in range(2)]
        with ClusterHarness(configs) as cluster:
            with TCPClient(port=cluster.port) as client:
                attached = client.canary(str(artifact_b), fraction=1.0,
                                         gates=GATES)
                assert attached["fingerprint"] == fp_b
                assert set(attached["workers"]) == {"w0", "w1"}
                push_baseline_traffic(client)
                status = client.canary_status()
                assert set(status["workers"]) == {"w0", "w1"}
                assert status["verdict"] in ("promote", "undecided")
                # Each worker judges only its slice, so unanimity is not
                # guaranteed with two streams; force makes the swap
                # deterministic for this test.
                promoted = client.promote(force=True)
                assert promoted["promoted"]
                assert all(entry["promoted"]
                           for entry in promoted["workers"].values())
                rolled = client.rollback(reason="test")
                assert rolled["ok"]
                assert set(rolled["workers"]) == {"w0", "w1"}

    def test_fleet_canary_status_for_a_binary_client(self, artifact_a,
                                                     artifact_b):
        """Only the client leg changes codec: the router still fans out
        over its JSON trunks and answers in the fleet shape."""
        configs = [WorkerConfig(name=f"w{i}",
                                artifacts={"default": artifact_a})
                   for i in range(2)]
        with ClusterHarness(configs) as cluster:
            with BinaryClient(port=cluster.port) as client:
                with pytest.raises(RuntimeError, match="no canary"):
                    client.canary_status()
                attached = client.canary(str(artifact_b), fraction=1.0,
                                         gates=GATES)
                assert set(attached["workers"]) == {"w0", "w1"}
                status = client.canary_status()
                assert status["verdict"] == "undecided"
                assert set(status["workers"]) == {"w0", "w1"}
                stopped = client.canary_stop()
                assert set(stopped["workers"]) == {"w0", "w1"}

    def test_fleet_canary_is_all_or_nothing(self, artifact_a, artifact_b):
        """A second canary attach fails fleet-wide: the first worker's
        accepted attach is compensated, leaving no half-attached fleet."""
        configs = [WorkerConfig(name=f"w{i}",
                                artifacts={"default": artifact_a})
                   for i in range(2)]
        with ClusterHarness(configs) as cluster:
            with TCPClient(port=cluster.port) as client:
                client.canary(str(artifact_b), fraction=1.0, gates=GATES)
                with pytest.raises(RuntimeError, match="already active"):
                    client.canary(str(artifact_b), fraction=1.0)
                # The original canary is still attached on every worker.
                status = client.canary_status()
                assert set(status["workers"]) == {"w0", "w1"}
