"""Networked front door for :class:`AnomalyService`: one dispatch core,
one server class for one tenant or many, pluggable protocols and transports.

Every connection speaks one of two *protocols*, decided by its first byte
(no handshake round trip):

* **line-delimited JSON** -- first byte is anything but ``0xAB``.  Every
  line is one JSON object, UTF-8, ``\\n``-terminated; any producer -- a
  shell script, ``nc``, a robot cell's data logger -- can use it, which is
  exactly why it stays the debuggability path.
* **binary** -- first byte ``0xAB`` (the :data:`repro.serve.wire.MAGIC`
  prefix).  Struct-packed frames with float32 sample blocks, many samples
  per PUSH frame; the compact ingest path for high sample rates (see
  :mod:`repro.serve.wire` for the frame layout).

The ops are the rows of :data:`repro.serve.wire.OPS` (codes, payloads,
cluster route and gate are tabled in that module's docstring).  An op's
request and reply are the same *message* over either protocol -- JSON
spells it as one line, binary as one frame -- so every op, the
model-lifecycle ones included, works over both.  Requests::

    {"op": "open",  "stream": "cell-7"}            optional: "max_samples",
                                                   "tenant"
    {"op": "push",  "stream": "cell-7", "values": [0.1, 0.2, ...]}
    {"op": "close", "stream": "cell-7"}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "metrics"}                              Prometheus text snapshot
    {"op": "trace"}                                Chrome trace JSON snapshot
    {"op": "snapshot"}                             rich JSON state (always on)
    {"op": "canary", "artifact": "/srv/b"}         optional: "fraction",
                                                   "gates", "watch"
    {"op": "canary_status"}
    {"op": "canary_stop"}
    {"op": "promote"}                              optional: "force"
    {"op": "rollback"}                             optional: "reason"
    {"op": "export_session", "stream": "cell-7"}   needs allow_handoff
    {"op": "import_session", "state": "<base64>"}  needs allow_handoff
    {"op": "shutdown"}                             needs allow_shutdown

(``metrics`` and ``trace`` answer only when the service was built with
``ServiceConfig(observability=True)``; otherwise they get a structured
error reply, like any other rejected op.  ``snapshot`` answers always --
it reads counters the hot path maintains anyway -- and is what
:mod:`repro.cluster` aggregates into fleet stats.  The handoff ops exist
for the cluster's session re-homing and only cluster workers enable them:
imported blobs are pickles and must never be accepted from untrusted
clients.)

A server hosts one :class:`AnomalyService` per *tenant* -- a lone service
is the tenant ``"default"``; a cluster worker has one per packaged
artifact.  ``open``, an auto-opening JSON ``push``, ``import_session``
and the lifecycle ops take a ``"tenant"`` key: a tenant name, or the
fingerprint of the artifact a tenant serves right now; without one they
address the default tenant.  Stream ids are unique per server, not per
tenant.

Every request gets exactly one reply, in request order::

    {"ok": true, "op": "push", "accepted": 1}      (+ op-specific fields)
    {"ok": false, "op": "push", "error": "..."}

Between replies the server interleaves unsolicited *event* lines (JSON: a
line with an ``"event"`` key; binary: an ALARM_EVENT frame) for every alarm
raised by any stream of this connection::

    {"event": "alarm", "stream": "cell-7", "index": 412,
     "score": 3.1, "threshold": 1.9}

Binary PUSH frames batch ``(n_samples, n_channels)`` float32 blocks and are
acked once per frame.  Malformed JSON gets an error *reply* and the
connection continues; malformed binary framing gets an ERROR frame and the
connection closes (a corrupted byte stream cannot be resynchronised).
Either way the service itself never crashes and the connection's sessions
are cleaned up.

``close`` replies with the session summary (samples pushed/scored/dropped,
adaptation event count), so a producer gets its end-of-stream accounting
without a second channel.  Backpressure under the ``"reject"`` policy
surfaces as an error reply; under ``"block"`` the reply is simply delayed
-- the transport's own flow control propagates the slowdown.

*Transports* are pluggable too (:mod:`repro.serve.transport`):
:class:`AnomalyWireServer` serves over any :class:`~repro.serve.transport.
Transport`; :class:`AnomalyTCPServer` is the TCP spelling, and a
:class:`~repro.serve.transport.UnixSocketTransport` serves co-located
producers with no TCP/IP stack in the path.  Clients mirror the split:
:class:`TCPClient` (JSON) and :class:`BinaryClient` share one blocking
request core and both accept ``uds_path=`` to connect over a Unix socket.
Streams opened by a connection are closed (and drained) when that
connection drops, so a crashed producer cannot leak sessions.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import functools
import json
import os
import socket
from pathlib import Path
from typing import (Any, Awaitable, Callable, Dict, Iterable, List, Mapping,
                    Optional, Union)

import numpy as np

from . import wire
from ..obs.metrics import merge_metrics_pages
from .service import AnomalyService, ServiceStats
from .session import ScoredSample
from .transport import (TCPTransport, Transport, UnixSocketTransport,
                        bound_port)

__all__ = ["AnomalyWireServer", "AnomalyTCPServer", "TCPClient",
           "BinaryClient", "ServerTimeoutError", "PROTOCOLS",
           "write_endpoint_file"]

#: The protocols a server may accept; ``AnomalyWireServer(protocols=...)``
#: restricts them (e.g. binary-only for a production ingest socket).
PROTOCOLS = ("json", "binary")

#: A JSON-protocol message: request, reply or event (module docstring).
Message = Dict[str, Any]


def write_endpoint_file(path: Union[str, Path], text: str) -> None:
    """Atomically publish an endpoint line: write a temp file, then rename.

    Pollers race the writer by design (the port-file handshake), so the
    visible file must never hold a partial line.  ``os.replace`` of a file
    written in the same directory is atomic on POSIX and Windows alike.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text + "\n", encoding="utf-8")
    os.replace(temp, path)


class ServerTimeoutError(ConnectionError):
    """No reply arrived within the client's timeout (stalled/half-closed)."""


class _MalformedRequest(Exception):
    """A request the codec could not parse.

    ``fatal`` distinguishes recoverable malformations (a bad JSON line --
    the framing is still line-synchronised, reply and continue) from
    unrecoverable ones (corrupt binary framing -- reply once, then close).
    """

    def __init__(self, message: str, *, request_op: Optional[str] = None,
                 fatal: bool = False) -> None:
        super().__init__(message)
        self.message = message
        self.request_op = request_op
        self.fatal = fatal

    def reply(self) -> Message:
        return {"ok": False, "op": self.request_op, "error": self.message}


def _event_payload(sample: ScoredSample) -> Message:
    """The alarm event message, shaped by the ALARM_EVENT row."""
    return wire.to_message(wire.AlarmEvent(
        sample.stream_id, sample.index, sample.score, sample.threshold,
        sample.fingerprint))


def _json_line(payload: Message) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# Protocol codecs: one asyncio connection end, as messages
# --------------------------------------------------------------------------- #
# ``serving`` ends (a server's or router's accepted connections) read
# requests and write replies and events; the other end (a router's trunk
# to a worker) writes requests and reads replies and events.
class _JSONConnection:
    """Line-delimited JSON framing for one connection end."""

    protocol = "json"

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, first_byte: bytes = b"", *,
                 serving: bool = True) -> None:
        self._reader = reader
        self._writer = writer
        self._first = first_byte
        self._serving = serving

    async def read_message(self) -> Optional[Message]:
        line = await self._reader.readline()
        if self._first:
            line, self._first = self._first + line, b""
        if not line:
            return None
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _MalformedRequest(f"bad JSON line: {error}") from error
        if not isinstance(message, dict) \
                or (self._serving and "op" not in message):
            raise _MalformedRequest(
                "each line must be an object with an 'op' key")
        return message

    def write(self, message: Message) -> None:
        """Queue one message on the connection."""
        self._writer.write(_json_line(message))


class _BinaryConnection:
    """Binary wire framing for one connection end."""

    protocol = "binary"

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, first_byte: bytes = b"", *,
                 serving: bool = True) -> None:
        self._reader = reader
        self._writer = writer
        self._reads, self._writes = ("request", "reply") if serving \
            else ("reply", "request")
        self._decoder = wire.FrameDecoder()
        self._decoder.feed(first_byte)
        self._pending: List[wire.Frame] = []

    async def read_message(self) -> Optional[Message]:
        while not self._pending:
            try:
                self._pending.extend(self._decoder.frames())
            except wire.WireProtocolError as error:
                raise _MalformedRequest(str(error), fatal=True) from error
            if self._pending:
                break
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                if self._decoder.pending_bytes:
                    # EOF mid-frame: nothing to reply to; the connection
                    # handler's cleanup path closes the sessions.
                    raise _MalformedRequest(
                        "connection dropped mid-frame", fatal=True)
                return None
            self._decoder.feed(chunk)
        frame = self._pending.pop(0)
        if frame.role != self._reads:
            # A structurally valid frame of the wrong direction (a client
            # echoing server reply ops): framing is still synchronised, so
            # answer with a structured error and keep the connection.
            raise _MalformedRequest(
                f"frame op 0x{frame.op:02X} is not a {self._reads} op")
        try:
            return wire.to_message(frame)
        except wire.WireProtocolError as error:
            # A well-framed frame whose JSON body does not parse: same
            # non-fatal outcome, echoing the op it was sent as.
            raise _MalformedRequest(
                str(error), request_op=frame.envelope.get("op")) from error

    def write(self, message: Message) -> None:
        """Queue one message on the connection."""
        self._writer.write(
            wire.encode(wire.from_message(message, self._writes)))


_CONNECTIONS = {"json": _JSONConnection, "binary": _BinaryConnection}


def _negotiate(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
               first: bytes):
    """First byte decides the protocol: 0xAB = binary, else line JSON."""
    protocol = "binary" if first == wire.MAGIC[:1] else "json"
    return _CONNECTIONS[protocol](reader, writer, first)


async def _serve_requests(
        codec, writer: asyncio.StreamWriter,
        dispatch: Callable[[Optional[wire.Op], Message], Awaitable[Message]],
        *, protocols: Iterable[str] = PROTOCOLS,
        count: Optional[Callable[..., None]] = None) -> bool:
    """The request loop of every front door (wire server, cluster router).

    Read a request, answer a malformed one from the codec's verdict,
    otherwise look its op up (``None``: not in the table), ``dispatch``
    both and write the reply -- until EOF, a fatal malformation, or an
    acknowledged ``shutdown`` (the one ``True`` return).  ``count(family,
    **labels)`` bumps the wire counters of a front door that keeps any.
    """
    if codec.protocol not in protocols:
        codec.write(_MalformedRequest(
            f"the {codec.protocol} protocol is disabled on this server "
            f"(accepted: {', '.join(protocols)})").reply())
        await writer.drain()
        return False
    if count is not None:
        count("connections", protocol=codec.protocol)
    while True:
        try:
            message = await codec.read_message()
        except _MalformedRequest as error:
            if count is not None:
                count("errors", protocol=codec.protocol)
            codec.write(error.reply())
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return False
            if error.fatal:
                return False
            continue
        if message is None:
            return False
        op = wire.lookup(message.get("op"))
        reply = await dispatch(op, message)
        if count is not None:
            count("requests", protocol=codec.protocol,
                  op="unknown" if op is None else op.name)
            if not reply.get("ok"):
                count("errors", protocol=codec.protocol)
        codec.write(reply)
        await writer.drain()
        if reply.get("op") == "shutdown" and reply.get("ok"):
            return True


def _checked_protocols(protocols: Iterable[str]) -> tuple:
    """A front door's ``protocols`` argument, validated."""
    protocols = tuple(protocols)
    if not protocols or set(protocols) - set(PROTOCOLS):
        raise ValueError(
            f"protocols must be a non-empty subset of {PROTOCOLS}, "
            f"got {protocols!r}")
    return protocols


def _error_reply(message: Message, error: Any) -> Message:
    name = message.get("op")
    return {"ok": False, "op": name if isinstance(name, str) else None,
            "error": str(error)}


def _check_op(server, op: Optional[wire.Op], message: Message) -> None:
    """Refuse a request whose op the table lacks or whose gate is closed:
    the ``allow_<gate>`` switch of ``server``, off if it has none."""
    if op is None:
        raise ValueError(f"unknown op {message.get('op')!r}")
    if op.gate is not None and not getattr(server, "allow_" + op.gate, False):
        raise ValueError(f"{op.gate} is disabled on this server")


#: One connection's streams (opened, auto-opened or imported): stream id
#: -> still open.  Open ones are closed (and drained) when the connection
#: drops; the alarm forwarder filters on every KEY -- every stream the
#: connection ever owned -- because a close drains pending windows whose
#: alarms are broadcast before the close handler marks the stream closed,
#: and those end-of-stream alarms must still reach the client.
#: (Consequence: do not reuse a closed stream id from another connection.)
_Owned = Dict[str, bool]


class AnomalyWireServer:
    """Serve one :class:`AnomalyService` per tenant over a pluggable transport.

    ``services`` maps tenant names to *un-started* services
    (:meth:`serve_forever` starts and stops all of them); a bare service
    is the single tenant ``"default"``.  An ``open`` (or an auto-opening
    ``push``, an ``import_session``, a lifecycle op) picks its service by
    the request's ``tenant`` key -- a tenant name, or the fingerprint of
    the artifact a tenant serves right now -- and falls back to
    ``default_tenant`` (the only tenant, when there is one).  The server
    keeps one ``stream id -> tenant`` index of the sessions it opened, so
    every later op on a stream finds its service in one lookup.
    ``stats`` and ``metrics`` answer with the merge across the hosted
    tenants (histograms exactly, summary quantiles conservatively).

    One dispatch core handles every connection; each connection's first
    byte selects its protocol codec (``0xAB`` = binary, else line JSON).
    ``protocols`` restricts what this listener accepts -- a connection
    speaking a disabled protocol gets one structured error and is closed.
    """

    def __init__(self,
                 services: Union[AnomalyService, Mapping[str, AnomalyService]],
                 transport: Transport, *,
                 default_tenant: Optional[str] = None,
                 allow_shutdown: bool = True,
                 allow_handoff: bool = False,
                 protocols: Iterable[str] = PROTOCOLS) -> None:
        if not isinstance(services, Mapping):
            services = {"default": services}
        if not services:
            raise ValueError("a wire server needs at least one service")
        #: tenant name -> hosted service
        self.services: Dict[str, AnomalyService] = dict(services)
        if default_tenant is None and len(self.services) == 1:
            default_tenant = next(iter(self.services))
        if default_tenant is not None and default_tenant not in self.services:
            raise ValueError(
                f"default tenant {default_tenant!r} is not hosted; "
                f"tenants: {sorted(self.services)}")
        self.default_tenant = default_tenant
        #: the default tenant's service (the first hosted one when there is
        #: no default): home of the wire counters and the ``trace`` op
        self.service = self.services[default_tenant] \
            if default_tenant is not None \
            else next(iter(self.services.values()))
        #: stream id -> tenant of every session opened over this server
        #: and still live (closed, exported and dropped streams leave)
        self._stream_tenants: Dict[str, str] = {}
        self.transport = transport
        #: honour the ``shutdown`` op (the smoke flow's clean-exit path);
        #: disable for servers that must only stop from their own host.
        self.allow_shutdown = allow_shutdown
        #: honour ``export_session``/``import_session``.  Off by default:
        #: imports deserialise pickled session state, so only
        #: cluster-internal worker endpoints may enable this.
        self.allow_handoff = allow_handoff
        self.protocols = _checked_protocols(protocols)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        # Wire-level metric families, registered into the service's
        # registry when observability is on (none registered = no-op).
        self._counters: Dict[str, Any] = {}
        if self.service.observability is not None:
            counter = self.service.observability.registry.counter
            for family, labels, text in (
                    ("connections", ("protocol",),
                     "Connections accepted, by negotiated protocol."),
                    ("requests", ("protocol", "op"),
                     "Requests dispatched, by protocol and op."),
                    ("errors", ("protocol",),
                     "Error replies sent (malformed frames + rejected ops)."),
                    ("alarm_events", ("protocol",),
                     "Unsolicited alarm events forwarded to clients.")):
                self._counters[family] = counter(
                    f"repro_wire_{family}_total", text, labels=labels)

    def _count(self, family: str, **labels: str) -> None:
        counter = self._counters.get(family)
        if counter is not None:
            counter.labels(**labels).inc()

    @property
    def bound_port(self) -> int:
        """The actual TCP port (useful with ``port=0`` ephemeral binding)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        if not isinstance(self.transport, TCPTransport):
            raise RuntimeError(
                f"the {self.transport.kind!r} transport has no TCP port"
            )
        return bound_port(self._server)

    @property
    def bound_address(self) -> str:
        """Endpoint text once listening (port number for TCP, path for UDS)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self.transport.address_text(self._server)

    async def serve_forever(self,
                            port_file: Optional[Union[str, Path]] = None,
                            ready: Optional[asyncio.Event] = None) -> None:
        """Run service + listener until ``shutdown`` (or cancellation).

        ``port_file``, when given, receives the bound endpoint as text once
        the listener is up (the TCP port number, or the UDS path) -- a
        race-free handshake for scripted clients.  ``ready`` is set at the
        same moment (for in-process callers).
        """
        self._stopping = asyncio.Event()
        started: List[AnomalyService] = []
        try:
            for service in self.services.values():
                await service.start()
                started.append(service)
            self._server = await self.transport.listen(self._handle_connection)
            try:
                if port_file is not None:
                    # Atomic write-then-rename: a poller racing this
                    # handshake must never read a partial endpoint line.
                    write_endpoint_file(port_file, self.bound_address)
                if ready is not None:
                    ready.set()
                await self._stopping.wait()
            finally:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
        finally:
            for service in reversed(started):
                await service.stop()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to wind down (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    # -- tenants and the stream index --------------------------------------- #
    def _tenant_for(self, message: Message) -> str:
        """The hosted tenant a request's ``tenant`` key addresses: a
        tenant name, the fingerprint of the artifact a tenant serves *now*
        (so it follows a promote or rollback), or -- absent, or the
        implicit ``"default"`` -- the default tenant."""
        key = message.get("tenant")
        if key in self.services:
            return key
        if key is None or key == "default":
            if self.default_tenant is None:
                raise ValueError(
                    f"this server hosts {len(self.services)} tenants and "
                    f"has no default; the request must carry a tenant key "
                    f"(one of {sorted(self.services)})")
            return self.default_tenant
        for tenant, service in self.services.items():
            if key == service.artifact_fingerprint:
                return tenant
        raise ValueError(
            f"unknown tenant {key!r}; this server hosts "
            f"{sorted(self.services)}")

    def _service_for(self, message: Message) -> AnomalyService:
        return self.services[self._tenant_for(message)]

    def _register_stream(self, stream_id: str, tenant: str,
                         owned: _Owned) -> None:
        """``tenant`` holds a session of this connection's: one it opened,
        imported, or is about to auto-open with a push."""
        self._stream_tenants[stream_id] = tenant
        owned[stream_id] = True

    def _forget_stream(self, stream_id: str, owned: _Owned) -> None:
        """A stream's session ended here (closed, exported, dropped)."""
        self._stream_tenants.pop(stream_id, None)
        if stream_id in owned:
            owned[stream_id] = False

    def _live_stream(self, message: Message):
        """``(stream id, its tenant)`` for an op on an open stream."""
        stream_id = _required_stream(message)
        tenant = self._stream_tenants.get(stream_id)
        if tenant is None:
            raise ValueError(f"unknown stream {stream_id!r}")
        return stream_id, tenant

    # -- per-connection handling ------------------------------------------- #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        owned: _Owned = {}
        alarm_tasks: List[asyncio.Task] = []
        try:
            first = await reader.read(1)
            if first:
                codec = _negotiate(reader, writer, first)
                alarm_tasks = [
                    asyncio.create_task(
                        self._forward_alarms(service, codec, writer, owned))
                    for service in self.services.values()]
                await _serve_requests(
                    codec, writer, functools.partial(self._dispatch, owned),
                    protocols=self.protocols,
                    count=self._count if self._counters else None)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for alarm_task in alarm_tasks:
                alarm_task.cancel()
            for alarm_task in alarm_tasks:
                try:
                    await alarm_task
                except asyncio.CancelledError:
                    pass
            # A dropped producer must not leak its sessions.
            for stream_id, still_open in owned.items():
                tenant = self._stream_tenants.get(stream_id)
                if still_open and tenant is not None:
                    try:
                        await self.services[tenant].close_session(stream_id)
                    except (RuntimeError, KeyError):
                        pass   # service already stopped / session gone
                    self._forget_stream(stream_id, owned)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _forward_alarms(self, service: AnomalyService, codec,
                              writer: asyncio.StreamWriter,
                              owned: _Owned) -> None:
        async for alarm in service.alarms():
            if alarm.stream_id not in owned:
                continue
            try:
                codec.write(_event_payload(alarm))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            self._count("alarm_events", protocol=codec.protocol)

    async def _dispatch(self, owned: _Owned, op: Optional[wire.Op],
                        message: Message) -> Message:
        """Check the op and its gate, run its ``_op_<name>`` handler.

        Handlers return the op-specific reply fields; the ``ok``/``op``
        envelope, and the error reply for whatever one raises, come here.
        """
        try:
            _check_op(self, op, message)
            body = await getattr(self, "_op_" + op.name)(message, owned)
            return {"ok": True, "op": op.name, **body}
        except (ValueError, TypeError, KeyError, RuntimeError) as error:
            # TypeError covers malformed client payloads (e.g. a string
            # max_samples) -- one error reply, never a dropped connection.
            return _error_reply(message, error)

    # -- one handler per row of wire.OPS ------------------------------------ #
    async def _op_ping(self, message: Message, owned: _Owned):
        return {}

    async def _op_stats(self, message: Message, owned: _Owned):
        return _stats_payload(ServiceStats.merged(
            [service.stats() for service in self.services.values()]))

    async def _op_snapshot(self, message: Message, owned: _Owned):
        # Machine-readable state of every hosted service: what
        # repro.cluster.ClusterStats merges into fleet stats.
        return {"snapshot": {"services": {
            tenant: {"fingerprint": service.artifact_fingerprint,
                     "stats": service.stats().to_dict()}
            for tenant, service in self.services.items()}}}

    async def _op_metrics(self, message: Message, owned: _Owned):
        pages = [service.metrics_text() for service in self.services.values()
                 if service.observability is not None]
        if not pages:
            return {"text": self.service.metrics_text()}  # standard rejection
        return {"text": pages[0] if len(pages) == 1
                else merge_metrics_pages(pages)}

    async def _op_trace(self, message: Message, owned: _Owned):
        return {"trace": self.service.trace_export()}

    async def _op_shutdown(self, message: Message, owned: _Owned):
        self.request_stop()
        return {}

    async def _op_open(self, message: Message, owned: _Owned):
        stream_id = _required_stream(message)
        tenant = self._tenant_for(message)
        if stream_id in self._stream_tenants:
            # Stream ids are per server, not per tenant: a second tenant's
            # session under a live id would orphan the first in the index.
            raise ValueError(f"session {stream_id!r} is already open")
        service = self.services[tenant]
        session = await service.open_session(
            stream_id, max_samples=message.get("max_samples"))
        self._register_stream(stream_id, tenant, owned)
        threshold = session.threshold
        return {"stream": stream_id, "window": service.detector.window,
                "incremental": session.incremental_active,
                "threshold": None if threshold is None
                else threshold.threshold}

    async def _op_push(self, message: Message, owned: _Owned):
        stream_id = _required_stream(message)
        block = _push_block(message)
        tenant = self._stream_tenants.get(stream_id)
        fresh = tenant is None
        if fresh:               # the service auto-opens on the first block
            tenant = self._tenant_for(message)
            self._register_stream(stream_id, tenant, owned)
        service = self.services[tenant]
        try:
            await service.push_block(stream_id, block)
        except Exception:
            if fresh:
                try:
                    service.session(stream_id)
                except KeyError:
                    # A refused first block (auto_open off, wrong channel
                    # count) opened nothing: it must not claim the id.
                    self._forget_stream(stream_id, owned)
            raise
        return {"accepted": int(block.shape[0])}

    async def _op_close(self, message: Message, owned: _Owned):
        stream_id, tenant = self._live_stream(message)
        session = await self.services[tenant].close_session(stream_id)
        self._forget_stream(stream_id, owned)
        return {"stream": stream_id,
                "samples_pushed": session.samples_pushed,
                "samples_scored": session.samples_scored,
                "samples_dropped": session.samples_dropped,
                "adaptation_events": len(session.adaptation_events)}

    async def _op_export_session(self, message: Message,
                                 owned: _Owned):
        stream_id, tenant = self._live_stream(message)
        blob = await self.services[tenant].export_session(stream_id)
        self._forget_stream(stream_id, owned)
        return {"stream": stream_id, "tenant": tenant,
                "state": base64.b64encode(blob).decode("ascii")}

    async def _op_import_session(self, message: Message,
                                 owned: _Owned):
        tenant = self._tenant_for(message)
        state = message.get("state")
        if not isinstance(state, str) or not state:
            raise ValueError("import_session needs a 'state' string")
        session = await self.services[tenant].import_session(
            base64.b64decode(state.encode("ascii")))
        self._register_stream(session.stream_id, tenant, owned)
        return {"stream": session.stream_id}

    async def _op_canary(self, message: Message, owned: _Owned):
        service = self._service_for(message)
        controller = _build_canary(message)
        service.attach_canary(controller)
        watch = message.get("watch")
        if watch is not None and watch is not False:
            from ..lifecycle import MetaWatcher, WatchPolicy
            policy = WatchPolicy(**watch) \
                if isinstance(watch, dict) else WatchPolicy()
            service.attach_watcher(MetaWatcher(policy))
        return {"fingerprint": controller.fingerprint,
                "fraction": controller.fraction,
                "gates": controller.gates.to_dict()}

    async def _op_canary_status(self, message: Message,
                                owned: _Owned):
        controller = self._service_for(message).canary
        if controller is None:
            raise ValueError("no canary is attached")
        return {"report": controller.evaluate().to_dict()}

    async def _op_canary_stop(self, message: Message, owned: _Owned):
        controller = self._service_for(message).stop_canary()
        return {"report": controller.evaluate().to_dict()}

    async def _op_promote(self, message: Message, owned: _Owned):
        return await self._service_for(message).promote(
            force=bool(message.get("force", False)))

    async def _op_rollback(self, message: Message, owned: _Owned):
        return await self._service_for(message).rollback(
            reason=str(message.get("reason", "manual")))


class AnomalyTCPServer(AnomalyWireServer):
    """The TCP spelling of :class:`AnomalyWireServer` (the default)."""

    def __init__(self, service: AnomalyService, host: str = "127.0.0.1",
                 port: int = 7007, *, allow_shutdown: bool = True,
                 protocols: Iterable[str] = PROTOCOLS) -> None:
        super().__init__(service, TCPTransport(host, port),
                         allow_shutdown=allow_shutdown, protocols=protocols)
        self.host = host
        self.port = port


def _build_canary(message: Message):
    """Build a CanaryController from a ``canary`` op's JSON payload.

    The candidate artifact (and its golden baseline sidecar) is loaded
    from the *server's* filesystem -- the op carries a path, not the
    artifact bytes.
    """
    from ..lifecycle import CanaryController, CanaryGates, load_baseline
    from ..serialize import artifact_fingerprint, load_detector

    artifact = message.get("artifact")
    if not isinstance(artifact, str) or not artifact:
        raise ValueError("op 'canary' needs an 'artifact' path string")
    candidate = load_detector(artifact)
    baseline = load_baseline(artifact)
    gates_spec = message.get("gates")
    if gates_spec is not None and not isinstance(gates_spec, dict):
        raise ValueError("'gates' must be a mapping of gate limits")
    gates = CanaryGates(**gates_spec) if gates_spec else None
    return CanaryController(
        candidate, baseline=baseline, gates=gates,
        fraction=float(message.get("fraction", 0.25)),
        fingerprint=artifact_fingerprint(artifact))


def _required_stream(message: Message) -> str:
    stream = message.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ValueError(f"op {message['op']!r} needs a 'stream' string")
    return stream


def _push_block(message: Message) -> np.ndarray:
    """Normalise a push payload to a ``(n_samples, n_channels)`` block.

    JSON pushes carry one sample as a flat ``values`` list; binary pushes
    arrive as an already-decoded 2-D float64 array (many samples).
    """
    values = message.get("values")
    if isinstance(values, np.ndarray):
        if values.ndim != 2 or values.size == 0:
            raise ValueError("push needs a non-empty sample block")
        return values
    if not isinstance(values, list) or not values:
        raise ValueError("push needs a non-empty 'values' array")
    return np.asarray(values, dtype=np.float64)[None, :]


def _stats_payload(stats) -> Message:
    """A ``stats`` reply read off a (possibly merged) ``ServiceStats``: the
    STATS_ACK row names the attributes and reports a NaN p99 as null."""
    return wire.to_message(wire.StatsAck(*(
        getattr(stats, field.name)
        for field in dataclasses.fields(wire.StatsAck))))


# --------------------------------------------------------------------------- #
# Blocking clients
# --------------------------------------------------------------------------- #
class _ClientCore:
    """Shared blocking request core of :class:`TCPClient`/:class:`BinaryClient`.

    Replies are matched to requests in order; unsolicited alarm events that
    arrive in between are collected on :attr:`alarms` (as JSON-shaped
    dicts, whichever protocol carried them).  Reads respect ``timeout_s``:
    a stalled or half-closed server raises :class:`ServerTimeoutError`
    instead of hanging forever.  Subclasses provide the wire framing via
    ``_send`` / ``_read_message``.
    """

    protocol = ""

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None) -> None:
        transport: Transport = TCPTransport(host, port) if uds_path is None \
            else UnixSocketTransport(uds_path)
        self.timeout_s = timeout_s
        self.endpoint = transport.describe()
        try:
            self._socket = transport.connect(timeout_s)
        except socket.timeout as error:
            raise ServerTimeoutError(
                f"could not connect to {self.endpoint} within "
                f"{timeout_s}s"
            ) from error
        #: alarm event payloads received so far (dicts, in arrival order)
        self.alarms: List[Message] = []

    # -- plumbing ----------------------------------------------------------- #
    def request(self, payload: Message) -> Message:
        """Send one request; absorb events until its reply arrives."""
        self._send(payload)
        while True:
            try:
                message = self._read_message()
            except socket.timeout as error:
                raise ServerTimeoutError(
                    f"no reply to op {payload.get('op')!r} from the server "
                    f"at {self.endpoint} within {self.timeout_s}s; the "
                    f"server may be stalled or the connection half-closed"
                ) from error
            if message is None:
                raise ConnectionError("server closed the connection")
            if "event" in message:
                self.alarms.append(message)
                continue
            return message

    def _send(self, payload: Message) -> None:
        raise NotImplementedError

    def _read_message(self) -> Optional[Message]:
        raise NotImplementedError

    def _call(self, op: str, **fields: Any) -> Message:
        """One checked round trip; ``None`` fields are left out of the
        request (optional keys are omitted, never sent as null)."""
        payload: Message = {"op": op}
        payload.update((key, value) for key, value in fields.items()
                       if value is not None)
        reply = self.request(payload)
        if not reply.get("ok"):
            raise RuntimeError(
                f"server rejected {op!r}: {reply.get('error')}")
        return reply

    # -- the protocol, one method per op ------------------------------------ #
    def ping(self) -> Message:
        return self._call("ping")

    def open(self, stream_id: str, max_samples: Optional[int] = None,
             tenant: Optional[str] = None) -> Message:
        return self._call("open", stream=stream_id, max_samples=max_samples,
                          tenant=tenant)

    def push(self, stream_id: str, values) -> Message:
        return self._call(
            "push", stream=stream_id,
            values=[float(v) for v in np.asarray(values).ravel()])

    def push_stream(self, stream_id: str, stream) -> int:
        """Push a whole ``(T, channels)`` recording; returns rows pushed."""
        stream = np.asarray(stream, dtype=np.float64)
        for row in stream:
            self.push(stream_id, row)
        return int(stream.shape[0])

    def close_stream(self, stream_id: str) -> Message:
        return self._call("close", stream=stream_id)

    def stats(self) -> Message:
        return self._call("stats")

    def snapshot(self) -> Dict[str, Any]:
        """Fetch the server's machine-readable state (per-service stats)."""
        return self._call("snapshot")["snapshot"]

    def export_session(self, stream_id: str) -> Message:
        """Drain and export a live session as an opaque handoff blob.

        Only honoured by servers started with ``allow_handoff=True``
        (cluster-internal worker endpoints).  The reply carries the
        stream id, its tenant key, and a base64 ``state`` string to feed
        to :meth:`import_session` on another worker.
        """
        return self._call("export_session", stream=stream_id)

    def import_session(self, tenant: Optional[str], state: str) -> Message:
        """Re-home a previously exported session onto this server."""
        return self._call("import_session", state=state, tenant=tenant)

    def metrics(self) -> str:
        """Scrape the server's Prometheus text exposition page.

        Requires the served service to run with
        ``ServiceConfig(observability=True)``; otherwise the server
        rejects the op and this raises ``RuntimeError``.
        """
        return self._call("metrics")["text"]

    def trace(self) -> Dict[str, Any]:
        """Fetch the server's Chrome trace snapshot (as the parsed object).

        Save it with ``json.dump`` to a ``.json`` file and open it at
        https://ui.perfetto.dev.  Requires observability *and* tracing
        (``trace_events > 0``) on the served service.
        """
        return self._call("trace")["trace"]

    def canary(self, artifact: str, *, fraction: float = 0.25,
               gates: Optional[Dict[str, Any]] = None,
               watch: Any = None,
               tenant: Optional[str] = None) -> Message:
        """Attach a canary for the artifact at ``artifact`` (a server-side
        path); optionally attach a meta-watcher (``watch=True`` or a
        WatchPolicy mapping) to be armed by the eventual promotion."""
        return self._call("canary", artifact=artifact, fraction=fraction,
                          gates=gates, watch=watch, tenant=tenant)

    def canary_status(self, tenant: Optional[str] = None) -> Message:
        """Evaluate the attached canary; returns the report dict.

        Against a cluster router the reply is the fleet shape instead:
        ``{"verdict": ..., "workers": {name: report}}``."""
        reply = self._call("canary_status", tenant=tenant)
        return reply.get("report", reply)

    def canary_stop(self, tenant: Optional[str] = None) -> Message:
        """Detach the canary without promoting; returns its final report."""
        return self._call("canary_stop", tenant=tenant)

    def promote(self, *, force: bool = False,
                tenant: Optional[str] = None) -> Message:
        """Promote the attached canary's candidate (gated unless forced)."""
        return self._call("promote", force=force, tenant=tenant)

    def rollback(self, *, reason: str = "manual",
                 tenant: Optional[str] = None) -> Message:
        """Hot-swap back to the pinned previous artifact."""
        return self._call("rollback", reason=reason, tenant=tenant)

    def shutdown(self) -> Message:
        return self._call("shutdown")

    def close(self) -> None:
        self._socket.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TCPClient(_ClientCore):
    """Blocking line-JSON client for :class:`AnomalyWireServer`.

    The CLI/smoke-flow producer -- it favours debuggability over
    throughput (one text round trip per sample).  For high-rate ingestion
    use :class:`BinaryClient` (batched float32 frames) or
    :class:`~repro.serve.AnomalyService` in process.  Despite the name it
    also connects over a Unix socket via ``uds_path=``.
    """

    protocol = "json"

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None) -> None:
        super().__init__(host, port, timeout_s, uds_path=uds_path)
        self._file = self._socket.makefile("rwb")

    def _send(self, payload: Message) -> None:
        self._file.write(_json_line(payload))
        self._file.flush()

    def _read_message(self) -> Optional[Message]:
        line = self._file.readline()
        if not line:
            return None
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._file.close()
        except (OSError, ValueError):
            pass
        finally:
            self._socket.close()


class BinaryClient(_ClientCore):
    """Blocking binary-protocol client (the compact ingest path).

    Speaks :mod:`repro.serve.wire` frames: samples travel as float32
    blocks, and :meth:`push_stream` batches ``chunk`` samples per PUSH
    frame -- one syscall and one ack per burst instead of per sample.
    Replies and alarm events are surfaced as the same dicts
    :class:`TCPClient` produces, so the two clients are drop-in
    interchangeable above the wire.
    """

    protocol = "binary"

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None,
                 chunk: int = 64) -> None:
        if chunk < 1:
            raise ValueError("chunk must be at least 1")
        super().__init__(host, port, timeout_s, uds_path=uds_path)
        self.chunk = chunk
        self._decoder = wire.FrameDecoder()
        self._frames: List[wire.Frame] = []

    # -- framing ------------------------------------------------------------ #
    def _send(self, payload: Message) -> None:
        self._socket.sendall(
            wire.encode(wire.from_message(payload, "request")))

    def _read_message(self) -> Optional[Message]:
        while not self._frames:
            self._frames.extend(self._decoder.frames())
            if self._frames:
                break
            chunk = self._socket.recv(1 << 16)
            if not chunk:
                return None
            self._decoder.feed(chunk)
        frame = self._frames.pop(0)
        if frame.role != "reply":
            raise ConnectionError(
                f"unexpected frame op 0x{frame.op:02X} from the server")
        return wire.to_message(frame)

    # -- ops whose wire shape differs from JSON ----------------------------- #
    def push(self, stream_id: str, values) -> Message:
        """Push one sample (or a ready-made ``(n, channels)`` block)."""
        block = np.asarray(values, dtype=np.float64)
        if block.ndim == 1:
            block = block[None, :]
        return self._call("push", stream=stream_id, values=block)

    def push_stream(self, stream_id: str, stream) -> int:
        """Push a whole recording, ``chunk`` samples per binary frame."""
        stream = np.asarray(stream, dtype=np.float64)
        if stream.ndim == 1:
            stream = stream[:, None]
        for start in range(0, stream.shape[0], self.chunk):
            self.push(stream_id, stream[start:start + self.chunk])
        return int(stream.shape[0])

    def import_session(self, tenant: Optional[str], state: str) -> Message:
        # The wire frame always carries a tenant key; a single-artifact
        # server answers to the implicit "default" tenant.
        return super().import_session(tenant or "default", state)
