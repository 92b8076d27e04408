"""TCP serving layer: protocol round trips, alarms over the wire, shutdown."""

import asyncio
import json
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.serve import (AnomalyService, AnomalyTCPServer, AnomalyWireServer,
                         BinaryClient, ServerTimeoutError, ServiceConfig,
                         TCPClient, TCPTransport)

from serve_helpers import make_stream


class ServerThread:
    """Run an AnomalyTCPServer (or a ready-made ``server``) on an ephemeral
    port in a background thread."""

    def __init__(self, detector, *, threshold=None, config=None,
                 allow_shutdown=True, server=None):
        if server is None:
            service = AnomalyService(
                detector, threshold=threshold,
                config=config if config is not None
                else ServiceConfig(max_batch=8, max_delay_ms=1.0))
            server = AnomalyTCPServer(service, port=0,
                                      allow_shutdown=allow_shutdown)
        self.server = server
        self._port_ready = threading.Event()
        self.port = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(self.server.serve_forever(ready=ready))
            await ready.wait()
            self.port = self.server.bound_port
            self._port_ready.set()
            await task

        asyncio.run(main())

    def __enter__(self):
        self.thread.start()
        assert self._port_ready.wait(10.0), "server did not come up"
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            # Ask politely from a throwaway connection, then join.
            try:
                with TCPClient(port=self.port, timeout_s=5.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
        self.thread.join(10.0)
        assert not self.thread.is_alive(), "server thread did not exit"


@pytest.fixture(scope="module")
def alarm_setup(detectors, train_stream):
    detector = detectors["kNN"]
    scores = detector.score_stream(train_stream).valid_scores()
    threshold = ThresholdCalibrator(quantile=0.9).calibrate(scores)
    return detector, threshold


class TestProtocol:
    def test_full_session_lifecycle_with_alarms(self, alarm_setup):
        detector, threshold = alarm_setup
        data, _ = make_stream(60, seed=40)
        data[30:34] += 25.0    # unmistakable anomaly burst

        with ServerThread(detector, threshold=threshold) as server:
            with TCPClient(port=server.port) as client:
                assert client.ping()["ok"]
                opened = client.open("cell-1")
                assert opened["window"] == detector.window
                assert opened["threshold"] == pytest.approx(threshold.threshold)
                client.push_stream("cell-1", data)
                stats = client.stats()
                summary = client.close_stream("cell-1")
                for _ in range(100):     # absorb in-flight event lines
                    if client.alarms:
                        break
                    client.ping()
                    time.sleep(0.01)
                assert summary["samples_pushed"] == len(data)
                assert summary["samples_scored"] > 0
                assert summary["samples_dropped"] == 0
                assert stats["samples_pushed"] <= len(data)
                # The burst alarmed, and events carry scores + thresholds.
                assert client.alarms, "expected alarm events over the wire"
                alarmed_indices = {alarm["index"] for alarm in client.alarms}
                assert alarmed_indices & {30, 31, 32, 33}
                for alarm in client.alarms:
                    assert alarm["event"] == "alarm"
                    assert alarm["stream"] == "cell-1"
                    assert alarm["score"] > alarm["threshold"]
                assert client.shutdown()["ok"]

    def test_alarms_from_close_drain_still_reach_the_client(self, alarm_setup):
        """Windows still pending at close are drained by close_session; the
        alarms they raise must be forwarded even though the close handler
        has already pruned the stream from the connection's live set."""
        detector, threshold = alarm_setup
        data, _ = make_stream(30, seed=45)
        data[20:] += 25.0     # the tail -- scored only by the close drain
        # A huge latency budget and batch bound: nothing flushes until close.
        config = ServiceConfig(max_batch=1024, max_delay_ms=600_000.0,
                               max_queue=1024)
        with ServerThread(detector, threshold=threshold,
                          config=config) as server:
            with TCPClient(port=server.port) as client:
                client.open("cell")
                client.push_stream("cell", data)
                summary = client.close_stream("cell")
                assert summary["samples_scored"] > 0
                for _ in range(100):
                    if client.alarms:
                        break
                    client.ping()
                    time.sleep(0.01)
                assert client.alarms, \
                    "close-drain alarms were dropped on the floor"
                assert {alarm["index"] for alarm in client.alarms} \
                    & set(range(20, 30))
                client.shutdown()

    def test_two_clients_two_streams(self, alarm_setup):
        """Sessions from different connections share the batcher but not
        their alarms: each connection sees only its own streams."""
        detector, threshold = alarm_setup
        calm, _ = make_stream(40, seed=41)
        noisy, _ = make_stream(40, seed=42)
        noisy[20:24] += 25.0

        with ServerThread(detector, threshold=threshold) as server:
            with TCPClient(port=server.port) as one, \
                    TCPClient(port=server.port) as two:
                one.open("calm")
                two.open("noisy")
                one.push_stream("calm", calm)
                two.push_stream("noisy", noisy)
                one.close_stream("calm")
                two.close_stream("noisy")
                # The alarm forwarder writes from its own task; nudge both
                # connections until the event lines have been read.
                for _ in range(100):
                    one.ping()
                    two.ping()
                    if two.alarms:
                        break
                    time.sleep(0.01)
                # Each connection sees only its own streams' alarms.
                assert two.alarms
                assert all(alarm["stream"] == "noisy"
                           for alarm in two.alarms)
                assert all(alarm["stream"] == "calm"
                           for alarm in one.alarms)
                # The injected burst dominates the noisy stream's alarms.
                assert {20, 21, 22, 23} & {alarm["index"]
                                           for alarm in two.alarms}

    def test_errors_are_replies_not_disconnects(self, detectors):
        detector = detectors["VARADE"]
        with ServerThread(detector) as server:
            with TCPClient(port=server.port) as client:
                # unknown op
                reply = client.request({"op": "warp"})
                assert not reply["ok"] and "unknown op" in reply["error"]
                # open without a stream id
                reply = client.request({"op": "open"})
                assert not reply["ok"] and "'stream'" in reply["error"]
                # push without values
                reply = client.request({"op": "push", "stream": "x"})
                assert not reply["ok"] and "values" in reply["error"]
                # close of a never-opened stream
                reply = client.request({"op": "close", "stream": "ghost"})
                assert not reply["ok"]
                # malformed payload types reply, not disconnect
                reply = client.request({"op": "open", "stream": "typed",
                                        "max_samples": "ten"})
                assert not reply["ok"]
                # double open
                assert client.open("cell")["ok"]
                reply = client.request({"op": "open", "stream": "cell"})
                assert not reply["ok"] and "already open" in reply["error"]
                # ... and the connection still works afterwards
                assert client.ping()["ok"]

    def test_bad_json_line_gets_error_reply(self, detectors):
        detector = detectors["VARADE"]
        with ServerThread(detector) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as raw:
                raw.sendall(b"this is not json\n")
                reply = json.loads(raw.makefile().readline())
                assert not reply["ok"]
                assert "bad JSON line" in reply["error"]

    def test_fresh_server_stats_reply_is_strict_json(self, detectors):
        """Regression: with zero scored samples the stats histograms used to
        report nan, which ``json.dumps`` emits as the non-compliant ``NaN``
        token.  Parse the raw reply line rejecting every non-standard
        constant."""
        def reject_constant(token):
            raise AssertionError(
                f"non-compliant JSON token {token!r} in stats reply")

        detector = detectors["VARADE"]
        with ServerThread(detector) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as raw:
                raw.sendall(b'{"op": "stats"}\n')
                reply = json.loads(raw.makefile().readline(),
                                   parse_constant=reject_constant)
                assert reply["ok"]
                assert reply["samples_pushed"] == 0
                assert reply["mean_batch_size"] == 0.0
                assert reply["queue_delay_p99_s"] == 0.0

    def test_disconnect_closes_owned_sessions(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(20, seed=43)
        with ServerThread(detector) as server:
            with TCPClient(port=server.port) as client:
                client.open("orphan")
                client.push_stream("orphan", data[:10])
            # leaving the block dropped the connection without closing the
            # stream; the server must reap the orphaned session itself
            with TCPClient(port=server.port) as probe:
                for _ in range(100):
                    if probe.stats()["live_sessions"] == 0:
                        break
                    time.sleep(0.01)
                assert probe.stats()["live_sessions"] == 0

    def test_shutdown_can_be_disabled(self, detectors):
        detector = detectors["VARADE"]
        with ServerThread(detector, allow_shutdown=False) as server:
            with TCPClient(port=server.port) as client:
                reply = client.request({"op": "shutdown"})
                assert not reply["ok"] and "disabled" in reply["error"]
                assert client.ping()["ok"]
            # __exit__'s polite shutdown will fail; stop from in-process.
            server.server.request_stop()

    def test_reject_backpressure_surfaces_as_error_reply(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(30, seed=44)
        config = ServiceConfig(max_batch=64, max_delay_ms=10_000.0,
                               max_queue=1, backpressure="reject",
                               incremental=False)
        with ServerThread(detector, config=config) as server:
            with TCPClient(port=server.port) as client:
                client.open("s0")
                replies = [client.request({
                    "op": "push", "stream": "s0",
                    "values": [float(v) for v in row],
                }) for row in data]
                rejected = [r for r in replies if not r["ok"]]
                assert rejected
                assert all("pending windows" in r["error"] for r in rejected)
                client.shutdown()


def _frame(client, block):
    """A PUSH payload for ``client``'s protocol: JSON carries one sample
    as a list, binary a whole ``(n, channels)`` block."""
    if isinstance(client, TCPClient):
        return [float(value) for value in block.ravel()]
    return block


@pytest.mark.parametrize("client_type", [TCPClient, BinaryClient])
class TestPartialFrames:
    """A refused PUSH frame ingests nothing it does not report."""

    def test_refused_first_push_does_not_claim_the_stream(self, detectors,
                                                          client_type):
        detector = detectors["VARADE"]
        data, _ = make_stream(20, seed=45)
        with ServerThread(detector) as server:
            with client_type(port=server.port) as client:
                client.open("s0")
                assert client.request({"op": "push", "stream": "s0",
                                       "values": _frame(client, data[:1])})["ok"]
                wide = np.ones((1, data.shape[1] + 2))
                reply = client.request({"op": "push", "stream": "s1",
                                        "values": _frame(client, wide)})
                assert not reply["ok"] and "channels" in reply["error"]
                assert set(server.server._stream_tenants) == {"s0"}
                assert client.stats()["samples_pushed"] == 1
                # The refused id is free: it opens like any new stream.
                assert client.open("s1")["ok"]

    def test_reject_reports_how_many_rows_were_accepted(self, detectors,
                                                        client_type):
        detector = detectors["VARADE"]
        data, _ = make_stream(40, seed=46)
        config = ServiceConfig(max_batch=64, max_delay_ms=10_000.0,
                               max_queue=2, backpressure="reject",
                               incremental=False)
        # JSON frames carry one row, binary frames a window's worth.
        size = 1 if client_type is TCPClient else detector.window
        with ServerThread(detector, config=config) as server:
            with client_type(port=server.port) as client:
                client.open("s0")
                for start in range(0, len(data), size):
                    frame = data[start:start + size]
                    reply = client.request({"op": "push", "stream": "s0",
                                            "values": _frame(client, frame)})
                    if not reply["ok"]:
                        break
                # The window fill plus the two windows that fit are in; a
                # binary frame reports the one row of it that got in.
                accepted = detector.window + 1 - start
                assert f"accepted {accepted} of {size} rows" in reply["error"]
                assert "pending windows" in reply["error"]
                assert client.stats()["samples_pushed"] == detector.window + 1


class _NoTableCopies(AnomalyService):
    """``sessions`` copies the whole session table: a stream op that
    reads it pays O(live sessions) per frame."""

    @property
    def sessions(self):
        raise AssertionError("a stream op copied the session table")


def _tenant_server(detector, service_type=AnomalyService, **options):
    config = ServiceConfig(max_batch=8, max_delay_ms=1.0)
    return AnomalyWireServer(
        {"alpha": service_type(detector, config=config),
         "beta": service_type(detector, config=config)},
        TCPTransport("127.0.0.1", 0), default_tenant="alpha", **options)


class TestStreamIndex:
    def test_single_service_is_the_default_tenant(self, detectors):
        with ServerThread(detectors["VARADE"]) as server:
            assert server.server.services == {"default": server.server.service}
            with TCPClient(port=server.port) as client:
                assert client.open("s", tenant="default")["ok"]
                assert list(client.snapshot()["services"]) == ["default"]
                with pytest.raises(RuntimeError, match="unknown tenant"):
                    client.open("t", tenant="someone-else")
                reply = client.request({"op": "push", "stream": "u",
                                        "tenant": "someone-else",
                                        "values": [0.0, 0.0, 0.0]})
                assert not reply["ok"] and "unknown tenant" in reply["error"]
                assert client.stats()["live_sessions"] == 1

    @pytest.mark.parametrize("client_type", [TCPClient, BinaryClient])
    def test_stream_ops_never_copy_the_session_table(self, detectors,
                                                     client_type):
        data, _ = make_stream(12, seed=45)
        server = _tenant_server(detectors["VARADE"], _NoTableCopies)
        with ServerThread(None, server=server) as running:
            with client_type(port=running.port) as client:
                for index in range(40):
                    client.open(f"s{index}",
                                tenant="beta" if index % 2 else None)
                client.push_stream("s7", data)
                client.push_stream("auto-opened", data)
                assert client.close_stream("s7")["samples_pushed"] == 12
                assert client.stats()["live_sessions"] == 40
            # ... and neither does the connection-drop cleanup
            with TCPClient(port=running.port) as probe:
                for _ in range(200):
                    if probe.stats()["live_sessions"] == 0:
                        break
                    time.sleep(0.01)
                assert probe.stats()["live_sessions"] == 0

    def test_a_refused_open_leaves_the_first_owner_in_charge(self, detectors):
        """Stream ids are per server: a second open is refused whichever
        tenant it names (another tenant's would orphan the live session),
        and the refusal must not move the stream to the intruder."""
        server = _tenant_server(detectors["VARADE"])
        with ServerThread(None, server=server) as running:
            with TCPClient(port=running.port) as owner:
                owner.open("s", tenant="beta")
                with TCPClient(port=running.port) as intruder:
                    for tenant in ("beta", "alpha", None):
                        with pytest.raises(RuntimeError, match="already open"):
                            intruder.open("s", tenant=tenant)
                assert owner.ping()["ok"]
                assert server._stream_tenants == {"s": "beta"}
                assert owner.close_stream("s")["stream"] == "s"

    @pytest.mark.parametrize("seed", range(4))
    def test_index_tracks_the_live_sessions_under_random_traffic(
            self, detectors, seed):
        """Whatever sequence of open / auto-opening push / export / import
        / close / disconnect the connections send, the index is exactly
        the union of the services' live sessions, tenant by tenant."""
        rng = random.Random(seed)
        server = _tenant_server(detectors["VARADE"], allow_handoff=True)
        live = {}        # the model: stream -> tenant
        owners = {}      # stream -> index of the connection that owns it
        exported = []    # (tenant, state) blobs waiting for a new home
        counter = 0

        def settled():
            for _ in range(500):
                if server._stream_tenants == live:
                    break
                time.sleep(0.01)
            assert server._stream_tenants == live
            for tenant, service in server.services.items():
                assert set(service.sessions) == {
                    stream for stream, home in live.items() if home == tenant}

        with ServerThread(None, server=server) as running:
            def connect():
                return rng.choice([TCPClient, BinaryClient])(port=running.port)
            clients = [connect() for _ in range(3)]
            try:
                for _ in range(120):
                    who = rng.randrange(len(clients))
                    client = clients[who]
                    mine = [s for s, owner in owners.items() if owner == who]
                    action = rng.choice(["open", "push", "push_new", "close",
                                         "export", "import", "disconnect"])
                    tenant = rng.choice(["alpha", "beta"])
                    if action == "open":
                        counter += 1
                        stream = f"s{counter}"
                        client.open(stream, tenant=tenant)
                        live[stream], owners[stream] = tenant, who
                    elif action == "push_new":
                        counter += 1
                        stream = f"s{counter}"
                        if client.protocol == "binary":
                            tenant = "alpha"    # PUSH frames carry no tenant
                            client.push(stream, [0.1, 0.2, 0.3])
                        else:
                            assert client.request({
                                "op": "push", "stream": stream,
                                "tenant": tenant,
                                "values": [0.1, 0.2, 0.3]})["ok"]
                        live[stream] = tenant
                        owners[stream] = who
                    elif action == "push" and live:
                        client.push(rng.choice(sorted(live)), [0.3, 0.2, 0.1])
                    elif action == "close" and mine:
                        stream = rng.choice(mine)
                        client.close_stream(stream)
                        del live[stream], owners[stream]
                    elif action == "export" and mine:
                        stream = rng.choice(mine)
                        reply = client.export_session(stream)
                        assert reply["tenant"] == live[stream]
                        exported.append((reply["tenant"], reply["state"]))
                        del live[stream], owners[stream]
                    elif action == "import" and exported:
                        home, state = exported.pop(rng.randrange(len(exported)))
                        stream = client.import_session(home, state)["stream"]
                        live[stream], owners[stream] = home, who
                    elif action == "disconnect":
                        client.close()
                        for stream in mine:
                            del live[stream], owners[stream]
                        clients[who] = connect()
                    settled()
            finally:
                for client in clients:
                    client.close()
            live.clear()
            settled()


class _SilentServer:
    """Accepts connections, reads requests, never replies (a stalled peer)."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._listener.settimeout(0.1)
        peers = []
        while not self._stop.is_set():
            try:
                peer, _ = self._listener.accept()
            except socket.timeout:
                continue
            peer.settimeout(0.1)
            peers.append(peer)
            # Keep draining so the client's send never blocks, but never
            # write a byte back.
            try:
                while not self._stop.is_set():
                    try:
                        if not peer.recv(4096):
                            break
                    except socket.timeout:
                        continue
            except OSError:
                pass
        for peer in peers:
            peer.close()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(5.0)
        self._listener.close()


class TestClientTimeouts:
    """Regression: a stalled or half-closed server must raise a descriptive
    ServerTimeoutError, not hang the client forever -- on both protocols."""

    @pytest.mark.parametrize("client_type", [TCPClient, BinaryClient],
                             ids=["json", "binary"])
    def test_stalled_server_raises_descriptive_timeout(self, client_type):
        with _SilentServer() as server:
            client = client_type(port=server.port, timeout_s=0.3)
            try:
                with pytest.raises(ServerTimeoutError) as excinfo:
                    client.ping()
            finally:
                client.close()
            message = str(excinfo.value)
            assert "'ping'" in message, "the error must name the stalled op"
            assert f"127.0.0.1:{server.port}" in message, \
                "the error must name the endpoint"
            assert "0.3" in message, "the error must name the timeout"
            assert "stalled" in message

    @pytest.mark.parametrize("client_type", [TCPClient, BinaryClient],
                             ids=["json", "binary"])
    def test_half_closed_server_raises_instead_of_hanging(self, client_type,
                                                          detectors):
        """A server that drops the connection mid-session must surface as a
        ConnectionError on the next request, never a silent hang."""
        with ServerThread(detectors["VARADE"]) as server:
            client = client_type(port=server.port, timeout_s=2.0)
            try:
                assert client.ping()["ok"]
                with TCPClient(port=server.port, timeout_s=5.0) as other:
                    other.shutdown()           # server goes away mid-session
                with pytest.raises(ConnectionError):
                    for _ in range(50):        # first request may still win
                        client.ping()
                        time.sleep(0.05)
            finally:
                client.close()

    def test_timeout_is_configurable_and_bounds_the_wait(self):
        with _SilentServer() as server:
            with TCPClient(port=server.port, timeout_s=0.2) as client:
                start = time.perf_counter()
                with pytest.raises(ServerTimeoutError):
                    client.ping()
                elapsed = time.perf_counter() - start
            assert elapsed < 5.0, "timeout did not bound the wait"
