"""Malformed-wire fuzz suite: hostile bytes never crash the server.

Every case here feeds the live server input that violates the wire
contract -- corrupt framing, hostile length prefixes, mid-frame
disconnects, protocol confusion -- and asserts the malformed-input
policy of :mod:`repro.serve.tcp`:

* corrupt **binary framing** is fatal for the connection: one ERROR frame
  (request_op 0) where a reply is still possible, then a clean close --
  a corrupted byte stream cannot be resynchronised;
* structurally valid frames that are **not requests** (a client echoing
  reply ops) get a structured error and the connection *continues*;
* semantically invalid requests (empty batches, ghost streams) get an
  error reply and the connection continues;
* a dropped connection -- even mid-frame, even with open sessions --
  never orphans a session (``live_sessions`` returns to 0);
* through all of it the server itself keeps serving.

The suite drives 20+ malformed cases against one shared server and ends
with a health check proving the full request cycle still works.
"""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.serve import AnomalyService, AnomalyTCPServer, BinaryClient, \
    ServiceConfig, TCPClient, wire

from test_tcp import ServerThread

N_CHANNELS = 3      # the conftest ``detectors`` fixture's channel count


def _frame(op, payload=b"", *, magic=wire.MAGIC, version=wire.VERSION,
           length=None):
    """Hand-assemble a frame, optionally lying in any header field."""
    if length is None:
        length = len(payload)
    return wire.HEADER.pack(magic, version, op, length) + payload


def _push_payload(stream, n_samples, n_channels, data=None):
    """A PUSH payload whose declared block shape need not match ``data``."""
    if data is None:
        data = np.zeros((n_samples, n_channels), dtype="<f4").tobytes()
    return (struct.pack("<H", len(stream)) + stream.encode("utf-8")
            + struct.pack("<IH", n_samples, n_channels) + data)


def _random_junk(seed, size=512):
    rng = np.random.default_rng(seed)
    body = rng.integers(0, 256, size=size, dtype=np.uint16) \
        .astype(np.uint8).tobytes()
    return b"\xab" + body      # 0xAB: negotiate binary, then garbage


# --------------------------------------------------------------------------- #
# Raw connection helpers
# --------------------------------------------------------------------------- #
class RawBinary:
    """A raw socket speaking hand-assembled binary frames."""

    def __init__(self, port, timeout_s=5.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout_s)
        self.decoder = wire.FrameDecoder()

    def send(self, data):
        self.sock.sendall(data)

    def recv_frame(self):
        frames = self.decoder.drain()
        while not frames:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise AssertionError("connection closed while awaiting a reply")
            frames = self.decoder.drain(chunk)
        frame, *rest = frames
        self.decoder._buffer[:0] = b"".join(wire.encode(f) for f in rest)
        return frame

    def drain_until_closed(self):
        """Half-close, then collect every frame until the server hangs up."""
        self.sock.shutdown(socket.SHUT_WR)
        frames = []
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                raise AssertionError(
                    "server neither replied nor closed the connection")
            if not chunk:
                return frames
            frames.extend(self.decoder.drain(chunk))

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture(scope="module")
def fuzz_server(detectors):
    with ServerThread(detectors["VARADE"]) as server:
        yield server


def _assert_healthy(server):
    """The full request cycle still works and no session is orphaned."""
    with TCPClient(port=server.port, timeout_s=5.0) as client:
        assert client.ping()["ok"]
        client.open("health-probe")
        client.push("health-probe", [0.0] * N_CHANNELS)
        summary = client.close_stream("health-probe")
        assert summary["samples_pushed"] == 1
        for _ in range(100):
            if client.stats()["live_sessions"] == 0:
                break
            time.sleep(0.01)
        assert client.stats()["live_sessions"] == 0, "orphaned session"


# --------------------------------------------------------------------------- #
# Fatal framing corruption: >= one ERROR (request_op 0) or silent close
# --------------------------------------------------------------------------- #
FATAL_CASES = [
    ("bad-magic",
     b"\xabXYZ" + bytes(6)),
    ("bad-version",
     _frame(wire.OP_PING, version=99)),
    ("unknown-op",
     _frame(0x7F)),
    ("length-prefix-0xFFFFFFFF",
     _frame(wire.OP_PUSH, length=0xFFFFFFFF)),
    ("length-prefix-max-payload-plus-1",
     _frame(wire.OP_PUSH, length=wire.MAX_PAYLOAD + 1)),
    ("truncated-header-then-eof",
     wire.MAGIC + bytes([wire.VERSION])),
    ("truncated-payload-then-eof",
     _frame(wire.OP_OPEN, length=100) + b"ten bytes."),
    ("push-declares-more-samples-than-carried",
     _frame(wire.OP_PUSH, _push_payload(
         "s", 8, N_CHANNELS, data=b"\x00" * 12))),
    ("push-carries-trailing-bytes",
     _frame(wire.OP_PUSH, _push_payload(
         "s", 1, N_CHANNELS) + b"trailing")),
    ("push-huge-sample-count-tiny-payload",
     _frame(wire.OP_PUSH, _push_payload(
         "s", 2**31 - 1, N_CHANNELS, data=b"\x00" * 8))),
    ("stream-id-length-exceeds-payload",
     _frame(wire.OP_OPEN, struct.pack("<H", 1000) + b"short")),
    ("stream-id-invalid-utf8",
     _frame(wire.OP_OPEN,
            struct.pack("<H", 4) + b"\xff\xfe\xfd\xfc" + struct.pack("<q", -1))),
    ("zero-length-open-payload",
     _frame(wire.OP_OPEN)),
    ("payload-on-payloadless-ping",
     _frame(wire.OP_PING, b"abc")),
    ("close-payload-with-trailing-bytes",
     _frame(wire.OP_CLOSE, struct.pack("<H", 1) + b"s" + b"extra")),
    ("json-text-after-binary-negotiation",
     b"\xab" + b'{"op": "ping"}\n'),
    ("seeded-random-junk-1", _random_junk(1)),
    ("seeded-random-junk-2", _random_junk(2)),
    ("seeded-random-junk-3", _random_junk(3, size=2048)),
]


@pytest.mark.parametrize(
    "payload", [case for _, case in FATAL_CASES],
    ids=[name for name, _ in FATAL_CASES])
def test_fatal_framing_corruption_closes_cleanly(fuzz_server, payload):
    with RawBinary(fuzz_server.port) as conn:
        conn.send(payload)
        frames = conn.drain_until_closed()
    # A reply is optional (EOF mid-frame leaves nothing to answer), but
    # whatever came back must be structured errors pinned to "unknown
    # request" -- never a crash, never a truncated/garbage frame.
    for frame in frames:
        assert isinstance(frame, wire.ErrorReply)
        assert frame.request_op == 0
        assert frame.message
    _assert_healthy(fuzz_server)


# --------------------------------------------------------------------------- #
# Well-framed but not a request: structured error, connection continues
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("frame", [
    wire.PingAck(),
    wire.PushAck(accepted=3),
    wire.AlarmEvent("spoof", 7, 9.9, threshold=None),
    wire.ErrorReply(0, "client thinks it is a server"),
    wire.PromoteAck('{"promoted":true}'),
    wire.CanaryStatusAck("not json"),   # never parsed: rejected by role
], ids=lambda frame: type(frame).__name__)
def test_reply_ops_from_client_get_error_but_connection_survives(
        fuzz_server, frame):
    with RawBinary(fuzz_server.port) as conn:
        conn.send(wire.encode(frame))
        reply = conn.recv_frame()
        assert isinstance(reply, wire.ErrorReply)
        assert "not a request op" in reply.message
        # Framing never desynchronised: the next request works.
        conn.send(wire.encode(wire.Ping()))
        assert isinstance(conn.recv_frame(), wire.PingAck)
    _assert_healthy(fuzz_server)


# --------------------------------------------------------------------------- #
# Valid framing, invalid semantics: error reply, connection continues
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("frame, expect", [
    (wire.Push("empty", np.empty((0, N_CHANNELS), dtype=np.float32)),
     "non-empty"),
    (wire.Close("ghost-stream"), "ghost-stream"),
    # Lifecycle requests carry a JSON object; anything else is a bad body
    # in a well-framed request -- the framing is still synchronised.
    (wire.Promote("not json"), "not valid JSON"),
    (wire.Canary("[1, 2]"), "must be a JSON object"),
], ids=["empty-batch-push", "close-of-never-opened-stream",
        "lifecycle-body-not-json", "lifecycle-body-not-an-object"])
def test_semantic_errors_are_replies_not_disconnects(fuzz_server, frame,
                                                     expect):
    with RawBinary(fuzz_server.port) as conn:
        conn.send(wire.encode(frame))
        reply = conn.recv_frame()
        assert isinstance(reply, wire.ErrorReply)
        assert expect in reply.message
        assert reply.request_op == frame.op     # echoes the request op
        conn.send(wire.encode(wire.Ping()))
        assert isinstance(conn.recv_frame(), wire.PingAck)
    _assert_healthy(fuzz_server)


def test_zero_channel_push_is_rejected_without_disconnect(fuzz_server):
    with RawBinary(fuzz_server.port) as conn:
        conn.send(_frame(wire.OP_PUSH, _push_payload("s", 1, 0, data=b"")))
        reply = conn.recv_frame()
        assert isinstance(reply, wire.ErrorReply)
        conn.send(wire.encode(wire.Ping()))
        assert isinstance(conn.recv_frame(), wire.PingAck)
    _assert_healthy(fuzz_server)


# --------------------------------------------------------------------------- #
# Session cleanup under hostile disconnects
# --------------------------------------------------------------------------- #
def test_mid_frame_disconnect_with_open_session_orphans_nothing(fuzz_server):
    """Regression: a producer that dies mid-frame, with a session open and
    samples in flight, must not leak the session."""
    with RawBinary(fuzz_server.port) as conn:
        conn.send(wire.encode(wire.Open("doomed")))
        assert isinstance(conn.recv_frame(), wire.OpenAck)
        block = np.zeros((4, N_CHANNELS), dtype=np.float32)
        conn.send(wire.encode(wire.Push("doomed", block)))
        assert isinstance(conn.recv_frame(), wire.PushAck)
        # Start a frame, never finish it, vanish.
        conn.send(_frame(wire.OP_PUSH, length=5000) + b"\x00" * 40)
    with BinaryClient(port=fuzz_server.port, timeout_s=5.0) as probe:
        for _ in range(200):
            if probe.stats()["live_sessions"] == 0:
                break
            time.sleep(0.01)
        assert probe.stats()["live_sessions"] == 0, \
            "mid-frame disconnect orphaned its session"
    _assert_healthy(fuzz_server)


def test_abrupt_disconnect_between_frames_orphans_nothing(fuzz_server):
    with RawBinary(fuzz_server.port) as conn:
        conn.send(wire.encode(wire.Open("vanish")))
        assert isinstance(conn.recv_frame(), wire.OpenAck)
    with BinaryClient(port=fuzz_server.port, timeout_s=5.0) as probe:
        for _ in range(200):
            if probe.stats()["live_sessions"] == 0:
                break
            time.sleep(0.01)
        assert probe.stats()["live_sessions"] == 0
    _assert_healthy(fuzz_server)


# --------------------------------------------------------------------------- #
# Protocol restriction: a disabled protocol gets one error, then close
# --------------------------------------------------------------------------- #
class RestrictedServerThread(ServerThread):
    """ServerThread accepting only a subset of protocols."""

    def __init__(self, detector, protocols):
        service = AnomalyService(
            detector, config=ServiceConfig(max_batch=8, max_delay_ms=1.0))
        self.server = AnomalyTCPServer(service, port=0, protocols=protocols)
        self._port_ready = threading.Event()
        self.port = None
        self.thread = threading.Thread(target=self._run, daemon=True)


def test_binary_bytes_on_a_json_only_server(detectors):
    with RestrictedServerThread(detectors["VARADE"],
                                protocols=("json",)) as server:
        with RawBinary(server.port) as conn:
            conn.send(wire.encode(wire.Ping()))
            frames = conn.drain_until_closed()
        assert len(frames) == 1
        assert isinstance(frames[0], wire.ErrorReply)
        assert "binary" in frames[0].message
        # The JSON path is unaffected.
        with TCPClient(port=server.port, timeout_s=5.0) as client:
            assert client.ping()["ok"]


def test_json_line_on_a_binary_only_server(detectors):
    with RestrictedServerThread(detectors["VARADE"],
                                protocols=("binary",)) as server:
        try:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as raw:
                raw.sendall(b'{"op": "ping"}\n')
                reader = raw.makefile("rb")
                reply = json.loads(reader.readline())
                assert not reply["ok"]
                assert "json" in reply["error"]
                assert reader.readline() == b"", "connection should be closed"
            # The binary path is unaffected.
            with BinaryClient(port=server.port, timeout_s=5.0) as client:
                assert client.ping()["ok"]
        finally:
            server.server.request_stop()   # JSON shutdown is disabled here
