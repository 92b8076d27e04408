"""The shard router: one front door, N workers, zero client changes.

Clients connect to the router exactly as they would to a single
:class:`~repro.serve.AnomalyWireServer` -- same TCP/UDS endpoint, same
binary/JSON negotiation, same ops.  The router consistent-hashes each
``stream_id`` onto a worker (:class:`~repro.cluster.HashRing`) and
proxies the conversation over a pooled *trunk* connection to that
worker.  Trunks are per ``(worker, protocol)``: a binary client's
float32 push blocks are re-encoded onto a binary trunk (byte-exact) and
a JSON client's float64 samples travel a JSON trunk, so sharding never
changes a score bit.

Fleet shape changes go through a read/write gate.  Stream ops hold the
read side; :meth:`ShardRouter.add_worker` / :meth:`remove_worker` take
the write side, re-slice the ring, and re-home exactly the streams whose
arc moved -- each is drained and exported on its old worker
(``export_session``) and imported on its new one (``import_session``)
before any client push can race it, preserving in-flight completion
order.

Worker crashes are detected by the health loop (and lazily, when a trunk
breaks mid-request).  The supervisor respawns the process; sessions that
lived there restart from an empty window (their scores resume once the
window re-fills -- crash loss is bounded by ``window`` samples), while
every other shard is untouched.

Fleet read-outs: ``stats`` and ``snapshot`` merge per-worker snapshots
through :class:`~repro.cluster.ClusterStats`; ``metrics`` merges the
workers' Prometheus pages (:func:`~repro.obs.merge_metrics_pages`)
and appends the router's own ``repro_cluster_*`` families.
"""

from __future__ import annotations

import asyncio
import collections
import functools
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Deque, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from ..obs.metrics import MetricsRegistry, merge_metrics_pages
from ..serve import wire
from ..serve.tcp import (_CONNECTIONS, PROTOCOLS, _MalformedRequest,
                         _check_op, _checked_protocols, _error_reply,
                         _negotiate, _required_stream, _serve_requests,
                         _stats_payload, write_endpoint_file)
from ..serve.transport import Transport
from .ring import DEFAULT_VIRTUAL_NODES, HashRing
from .stats import ClusterStats
from .supervisor import WorkerSupervisor
from .worker import WorkerConfig

__all__ = ["RouterConfig", "ShardRouter"]


@dataclass
class RouterConfig:
    """Knobs of the shard router (spec-level: ``ServiceSpec.cluster``)."""

    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    #: health-probe / fleet-metrics-refresh period
    health_interval_s: float = 2.0
    #: respawn crashed workers (off = fail their streams' requests)
    restart: bool = True
    #: upper bound on one crash-recovery attempt (respawn + handshake)
    recover_timeout_s: float = 30.0
    #: per-request timeout on worker trunks
    request_timeout_s: float = 30.0


class _RWGate:
    """Many concurrent stream ops XOR one exclusive rebalance."""

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False

    @asynccontextmanager
    async def read_locked(self):
        async with self._cond:
            while self._writer:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def write_locked(self):
        async with self._cond:
            while self._writer or self._readers:
                await self._cond.wait()
            self._writer = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                self._cond.notify_all()


class _Trunk:
    """One pooled connection to a worker, speaking one protocol.

    Requests are FIFO: the worker's dispatch loop answers in order, so a
    deque of futures pairs replies with callers.  Unsolicited alarm
    events are handed to the router for fan-out to the owning clients.
    """

    def __init__(self, router: "ShardRouter", worker: str, protocol: str,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.router = router
        self.worker = worker
        self.protocol = protocol
        self._codec = _CONNECTIONS[protocol](reader, writer, serving=False)
        self._writer = writer
        self._send_lock = asyncio.Lock()
        self._pending: Deque[asyncio.Future] = collections.deque()
        self._closed = False
        self._task = asyncio.create_task(self._read_loop())

    @property
    def alive(self) -> bool:
        return not self._closed

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionError(
                f"trunk to worker {self.worker!r} is down")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        async with self._send_lock:
            if self._closed:
                raise ConnectionError(
                    f"trunk to worker {self.worker!r} is down")
            self._pending.append(future)
            try:
                self._codec.write(message)
                await self._writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError) as error:
                self._fail(ConnectionError(str(error)))
                raise ConnectionError(
                    f"trunk to worker {self.worker!r} broke mid-send"
                ) from error
        return await asyncio.wait_for(
            future, self.router.config.request_timeout_s)

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await self._codec.read_message()
                if message is None:
                    break
                await self._deliver(message)
        except (ConnectionResetError, BrokenPipeError, OSError,
                _MalformedRequest) as error:
            self._fail(ConnectionError(str(error)))
            return
        finally:
            self._fail(ConnectionError(
                f"worker {self.worker!r} closed the trunk"))

    async def _deliver(self, message: Dict[str, Any]) -> None:
        if "event" in message:
            await self.router._on_worker_event(self.worker, message)
            return
        if self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_result(message)

    def _fail(self, error: Exception) -> None:
        if self._closed:
            return
        self._closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(error)
        self._writer.close()

    async def close(self) -> None:
        self._fail(ConnectionError("trunk closed"))
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


@dataclass
class _StreamRoute:
    """Everything needed to re-open or re-home one routed stream."""

    stream_id: str
    #: the original open message (replayed after a worker crash)
    open_message: Dict[str, Any]
    #: protocol of the client that opened it (handoffs ride this trunk)
    protocol: str
    #: client connections that ever owned the stream (alarm fan-out)
    conns: Set["_ClientConn"] = field(default_factory=set)
    #: worker session state was lost (crash) -- re-open before next push
    lost: bool = False
    #: the stream was closed; the route lingers only so trailing alarm
    #: events (the worker's forwarder races the close ack) still fan out
    closed: bool = False


class _ClientConn:
    """One accepted client connection on the router's front door."""

    def __init__(self, codec, writer: asyncio.StreamWriter) -> None:
        self.codec = codec
        self.writer = writer
        self.protocol = codec.protocol
        self.owned: List[str] = []


class ShardRouter:
    """Protocol-aware shard proxy over a supervised worker fleet.

    ``supervisor`` must already hold the initial fleet (spawned
    :class:`~repro.cluster.WorkerHandle` per worker).  The router builds
    its hash ring from those names; :meth:`add_worker` /
    :meth:`remove_worker` reshape the fleet at runtime.
    """

    def __init__(self, supervisor: WorkerSupervisor, transport: Transport,
                 *, config: Optional[RouterConfig] = None,
                 allow_shutdown: bool = True,
                 protocols: Iterable[str] = PROTOCOLS) -> None:
        if not supervisor.workers:
            raise ValueError("the supervisor has no workers to route to")
        self.supervisor = supervisor
        self.transport = transport
        self.config = config or RouterConfig()
        self.allow_shutdown = allow_shutdown
        #: protocols the front door accepts, as on ``AnomalyWireServer``
        self.protocols = _checked_protocols(protocols)
        self.ring = HashRing(supervisor.workers,
                             virtual_nodes=self.config.virtual_nodes)
        self._gate = _RWGate()
        self._trunks: Dict[Tuple[str, str], _Trunk] = {}
        self._worker_locks: Dict[str, asyncio.Lock] = {}
        self._streams: Dict[str, _StreamRoute] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._health_task: Optional[asyncio.Task] = None
        self._metrics_cache = ""
        self._rehomed_total = 0
        self._rebalances_total = 0
        self._alarms_forwarded = 0
        self._proxied: collections.Counter = collections.Counter()
        self.registry = MetricsRegistry()
        self._register_metrics()

    # -- metrics ------------------------------------------------------------- #
    def _live_route_count(self) -> int:
        # closed routes linger for trailing-alarm fan-out; don't count them
        return sum(1 for route in self._streams.values() if not route.closed)

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.gauge(
            "repro_cluster_workers_live",
            "Workers currently alive (supervisor view).",
            fn=lambda: sum(1 for name in self.ring.nodes
                           if self.supervisor.alive(name)))
        registry.gauge(
            "repro_cluster_workers_total",
            "Workers on the hash ring.",
            fn=lambda: len(self.ring))
        registry.counter(
            "repro_cluster_worker_restarts_total",
            "Worker processes respawned after a crash.",
            fn=lambda: sum(handle.restarts for handle
                           in self.supervisor.workers.values()))
        registry.counter(
            "repro_cluster_sessions_rehomed_total",
            "Sessions moved between workers by rebalances.",
            fn=lambda: self._rehomed_total)
        registry.counter(
            "repro_cluster_rebalances_total",
            "Ring reshapes (worker joins + leaves).",
            fn=lambda: self._rebalances_total)
        registry.gauge(
            "repro_cluster_streams_routed",
            "Streams currently routed to a worker.",
            fn=self._live_route_count)
        registry.counter(
            "repro_cluster_alarm_events_forwarded_total",
            "Worker alarm events fanned out to clients.",
            fn=lambda: self._alarms_forwarded)
        self._requests_proxied = registry.counter(
            "repro_cluster_requests_proxied_total",
            "Stream ops forwarded to workers, by op.",
            labels=("op",))

    # -- lifecycle ----------------------------------------------------------- #
    async def serve_forever(self,
                            port_file: Optional[Union[str, Path]] = None,
                            ready: Optional[asyncio.Event] = None) -> None:
        """Listen on the front door until :meth:`request_stop`."""
        self._stopping = asyncio.Event()
        self._server = await self.transport.listen(self._handle_connection)
        self._health_task = asyncio.create_task(self._health_loop())
        try:
            # Seed the scrape cache so a /metrics poll before the first
            # health tick already sees every fleet family (at zero).
            try:
                await self._fleet_metrics()
            except (ConnectionError, asyncio.TimeoutError):
                pass
            if port_file is not None:
                write_endpoint_file(port_file, self.bound_address)
            if ready is not None:
                ready.set()
            await self._stopping.wait()
        finally:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            for trunk in list(self._trunks.values()):
                await trunk.close()
            self._trunks.clear()
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    @property
    def bound_address(self) -> str:
        if self._server is None:
            raise RuntimeError("router is not running")
        return self.transport.address_text(self._server)

    @property
    def bound_port(self) -> int:
        from ..serve.tcp import bound_port
        if self._server is None:
            raise RuntimeError("router is not running")
        return bound_port(self._server)

    # -- trunk pool ---------------------------------------------------------- #
    def _worker_lock(self, worker: str) -> asyncio.Lock:
        lock = self._worker_locks.get(worker)
        if lock is None:
            lock = self._worker_locks[worker] = asyncio.Lock()
        return lock

    async def _trunk(self, worker: str, protocol: str) -> _Trunk:
        trunk = self._trunks.get((worker, protocol))
        if trunk is not None and trunk.alive:
            return trunk
        async with self._worker_lock(worker):
            trunk = self._trunks.get((worker, protocol))
            if trunk is not None and trunk.alive:
                return trunk
            handle = self.supervisor.workers.get(worker)
            if handle is None:
                raise ConnectionError(f"no such worker {worker!r}")
            if handle.transport == "uds":
                reader, writer = await asyncio.open_unix_connection(
                    handle.endpoint)
            else:
                host = handle.config.host if handle.config else "127.0.0.1"
                reader, writer = await asyncio.open_connection(
                    host, int(handle.endpoint))
            trunk = _Trunk(self, worker, protocol, reader, writer)
            self._trunks[(worker, protocol)] = trunk
            return trunk

    async def _drop_trunks(self, worker: str) -> None:
        for protocol in ("binary", "json"):
            trunk = self._trunks.pop((worker, protocol), None)
            if trunk is not None:
                await trunk.close()

    # -- crash recovery ------------------------------------------------------ #
    async def _ensure_worker(self, worker: str) -> None:
        """Respawn ``worker`` if its process died; mark its routes lost.

        A trunk error can race the process's actual death (the kernel
        delivers the RST before ``poll()`` observes the exit), so a
        worker that still *looks* alive only gets its dead trunks
        dropped plus a short back-off -- the retry loop in
        :meth:`_stream_op` comes back here until the crash becomes
        visible or the recovery deadline expires.
        """
        async with self._worker_lock(worker):
            if self.supervisor.alive(worker):
                for protocol in ("binary", "json"):
                    trunk = self._trunks.get((worker, protocol))
                    if trunk is not None and not trunk.alive:
                        self._trunks.pop((worker, protocol))
                await asyncio.sleep(0.05)
                return
            await self._mark_worker_lost(worker)
            if not self.config.restart:
                raise ConnectionError(
                    f"worker {worker!r} died and restart is disabled")
            await asyncio.wait_for(
                asyncio.to_thread(self.supervisor.respawn, worker),
                self.config.recover_timeout_s)

    async def _mark_worker_lost(self, worker: str) -> None:
        for protocol in ("binary", "json"):
            trunk = self._trunks.pop((worker, protocol), None)
            if trunk is not None:
                trunk._fail(ConnectionError(f"worker {worker!r} died"))
        for route in self._streams.values():
            if not route.closed \
                    and self.ring.owner(route.stream_id) == worker:
                route.lost = True

    async def _reopen(self, route: _StreamRoute, worker: str) -> None:
        """Replay a lost stream's open on its (respawned) worker."""
        trunk = await self._trunk(worker, route.protocol)
        reply = await trunk.request(route.open_message)
        if not reply.get("ok"):
            raise ConnectionError(
                f"could not re-open stream {route.stream_id!r} on "
                f"worker {worker!r}: {reply.get('error')}")
        route.lost = False

    # -- client connections -------------------------------------------------- #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn: Optional[_ClientConn] = None
        try:
            first = await reader.read(1)
            if first:
                conn = _ClientConn(_negotiate(reader, writer, first), writer)
                if await _serve_requests(
                        conn.codec, writer,
                        functools.partial(self._dispatch, conn),
                        protocols=self.protocols):
                    self.request_stop()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if conn is not None:
                await self._cleanup_client(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled us mid-close; the transport is
                # going away with the loop, so a silent return is clean.
                return

    async def _cleanup_client(self, conn: _ClientConn) -> None:
        """A dropped producer must not leak its sessions on the workers."""
        for stream_id in conn.owned:
            route = self._streams.get(stream_id)
            if route is None:
                continue
            route.conns.discard(conn)
            try:
                async with self._gate.read_locked():
                    worker = self.ring.owner(stream_id)
                    trunk = await self._trunk(worker, conn.protocol)
                    await trunk.request({"op": "close", "stream": stream_id})
            except (ConnectionError, asyncio.TimeoutError, LookupError):
                pass
            except asyncio.CancelledError:
                # Router shutdown cancelled the connection callback;
                # the workers are going down with us -- stop cleaning.
                return
            self._streams.pop(stream_id, None)
        # Closed routes linger for alarm fan-out; reap the ones whose
        # last subscribed client just left.
        for stream_id, route in list(self._streams.items()):
            route.conns.discard(conn)
            if route.closed and not route.conns:
                self._streams.pop(stream_id, None)

    # -- dispatch ------------------------------------------------------------ #
    async def _dispatch(self, conn: _ClientConn, op: Optional[wire.Op],
                        message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request by its op's ``route`` in ``serve.wire.OPS``."""
        try:
            _check_op(self, op, message)
            if op.route == "stream":
                return await self._stream_op(conn, op.name, message)
            if op.route == "local":
                return {"ok": True, "op": op.name}
            if op.route == "worker":
                raise ValueError(
                    f"{op.name} is per-worker on a cluster; ask a worker "
                    f"endpoint (or its observability port) directly")
            if op.route == "merge":
                # Fleet read-outs: merged from whichever workers answer.
                body = await getattr(self, "_merged_" + op.name)()
                return {"ok": True, "op": op.name, **body}
            # unanimous: lifecycle controls reach every ring worker or none
            return await getattr(self, "_fleet_" + op.name)(message)
        except asyncio.TimeoutError:
            return _error_reply(
                message, "worker did not answer within the trunk timeout")
        except (ValueError, TypeError, KeyError, RuntimeError,
                ConnectionError, LookupError) as error:
            return _error_reply(message, error)

    async def _stream_op(self, conn: _ClientConn, op: str,
                         message: Dict[str, Any]) -> Dict[str, Any]:
        stream_id = _required_stream(message)
        self._requests_proxied.labels(op=op).inc()
        async with self._gate.read_locked():
            worker = self.ring.owner(stream_id)
            route = self._streams.get(stream_id)
            # Lazy crash detection: on a trunk error, recover the worker
            # (respawn if dead, reconnect if not) and retry until the
            # recovery deadline -- one bounded stall per crash, never a
            # failed client request for a recoverable blip.
            deadline = asyncio.get_running_loop().time() \
                + self.config.recover_timeout_s
            while True:
                try:
                    if route is not None and route.lost:
                        await self._reopen(route, worker)
                    trunk = await self._trunk(worker, conn.protocol)
                    reply = await trunk.request(message)
                    break
                except ConnectionError:
                    if asyncio.get_running_loop().time() >= deadline:
                        raise
                    await self._ensure_worker(worker)
            self._track_stream(conn, op, message, reply)
            return reply

    def _track_stream(self, conn: _ClientConn, op: str,
                      message: Dict[str, Any],
                      reply: Dict[str, Any]) -> None:
        if not reply.get("ok"):
            return
        stream_id = message["stream"]
        if op in ("open", "push"):
            route = self._streams.get(stream_id)
            if route is None or route.closed:
                open_message = {"op": "open", "stream": stream_id}
                for key in ("max_samples", "tenant"):
                    if message.get(key) is not None:
                        open_message[key] = message[key]
                if route is None:
                    route = _StreamRoute(stream_id, open_message,
                                         conn.protocol)
                    self._streams[stream_id] = route
                else:               # the stream id was re-opened
                    route.open_message = open_message
                    route.protocol = conn.protocol
                    route.closed = False
                    route.lost = False
            route.conns.add(conn)
            if stream_id not in conn.owned:
                conn.owned.append(stream_id)
        elif op == "close":
            # Keep the route for alarm fan-out: the worker's event
            # forwarder may still be writing the close-drain alarms when
            # the close ack lands.  The route dies with its last client.
            route = self._streams.get(stream_id)
            if route is not None:
                route.closed = True
            if stream_id in conn.owned:
                conn.owned.remove(stream_id)

    # -- alarm fan-out ------------------------------------------------------- #
    async def _on_worker_event(self, worker: str,
                               message: Dict[str, Any]) -> None:
        route = self._streams.get(message.get("stream", ""))
        if route is None:
            return
        for conn in list(route.conns):
            try:
                conn.codec.write(message)
                await conn.writer.drain()
                self._alarms_forwarded += 1
            except (ConnectionResetError, BrokenPipeError, OSError):
                route.conns.discard(conn)

    # -- fleet reshapes ------------------------------------------------------ #
    async def add_worker(self, config: WorkerConfig) -> None:
        """Spawn a worker, re-slice the ring, re-home the moved streams."""
        if config.name in self.ring:
            raise ValueError(f"worker {config.name!r} is already on the ring")
        async with self._gate.write_locked():
            await asyncio.wait_for(
                asyncio.to_thread(self.supervisor.spawn, config),
                self.config.recover_timeout_s)
            new_ring = HashRing(self.ring.nodes | {config.name},
                                virtual_nodes=self.ring.virtual_nodes)
            await self._rehome_moved(new_ring)
            self.ring = new_ring
            self._rebalances_total += 1

    async def remove_worker(self, name: str) -> None:
        """Drain a worker's streams onto the rest of the ring, then stop it."""
        if name not in self.ring:
            raise ValueError(f"worker {name!r} is not on the ring")
        if len(self.ring) == 1:
            raise ValueError("cannot remove the last worker")
        async with self._gate.write_locked():
            new_ring = HashRing(self.ring.nodes - {name},
                                virtual_nodes=self.ring.virtual_nodes)
            await self._rehome_moved(new_ring)
            self.ring = new_ring
            self._rebalances_total += 1
            await self._drop_trunks(name)
            await asyncio.to_thread(self.supervisor.stop, name)

    async def _rehome_moved(self, new_ring: HashRing) -> None:
        """Export/import every routed stream whose owner changes.

        Runs under the exclusive gate: no stream op is in flight, and the
        worker-side export drains the micro-batcher first, so in-flight
        samples complete on the old worker before the session moves.
        """
        for stream_id, route in self._streams.items():
            if route.closed:
                continue   # session already ended; nothing to move
            old = self.ring.owner(stream_id)
            new = new_ring.owner(stream_id)
            if old == new:
                continue
            if route.lost:
                continue   # nothing to export; re-opens lazily on `new`
            source = await self._trunk(old, route.protocol)
            exported = await source.request(
                {"op": "export_session", "stream": stream_id})
            if not exported.get("ok"):
                raise RuntimeError(
                    f"worker {old!r} refused to export stream "
                    f"{stream_id!r}: {exported.get('error')}")
            target = await self._trunk(new, route.protocol)
            imported = await target.request(
                {"op": "import_session", "tenant": exported["tenant"],
                 "state": exported["state"]})
            if not imported.get("ok"):
                raise RuntimeError(
                    f"worker {new!r} refused to import stream "
                    f"{stream_id!r}: {imported.get('error')}")
            self._rehomed_total += 1

    # -- model lifecycle fan-out --------------------------------------------- #
    async def _fleet_canary(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Attach the canary on every ring worker, all-or-nothing.

        Workers load the candidate artifact from their own filesystem (the
        op carries a path); a mid-fleet failure detaches the canaries that
        did attach, so the fleet never shadow-scores half a candidate.
        """
        async with self._gate.read_locked():
            attached = []
            workers: Dict[str, Any] = {}
            for worker in sorted(self.ring.nodes):
                reply = await self._worker_request(worker, dict(message))
                if not reply.get("ok"):
                    for done in attached:
                        try:
                            await self._worker_request(
                                done, {"op": "canary_stop",
                                       "tenant": message.get("tenant")})
                        except (ConnectionError, asyncio.TimeoutError):
                            pass
                    raise RuntimeError(
                        f"worker {worker!r} rejected the canary: "
                        f"{reply.get('error')}")
                attached.append(worker)
                workers[worker] = {"fingerprint": reply.get("fingerprint")}
            fingerprint = next(iter(workers.values()))["fingerprint"] \
                if workers else None
            return {"ok": True, "op": "canary", "fingerprint": fingerprint,
                    "workers": workers}

    async def _fleet_canary_status(self,
                                   message: Dict[str, Any]) -> Dict[str, Any]:
        """Per-worker canary reports plus the fleet verdict.

        The fleet promotes only when *every* worker's gates pass: each
        worker judges its own live traffic slice, and a promotion must be
        unanimous or the fleet's models diverge.
        """
        async with self._gate.read_locked():
            reports: Dict[str, Any] = {}
            for worker in sorted(self.ring.nodes):
                reply = await self._worker_request(worker, dict(message))
                if not reply.get("ok"):
                    raise RuntimeError(
                        f"worker {worker!r}: {reply.get('error')}")
                reports[worker] = reply["report"]
            verdicts = {report["verdict"] for report in reports.values()}
            if verdicts == {"promote"}:
                verdict = "promote"
            elif "reject" in verdicts:
                verdict = "reject"
            else:
                verdict = "undecided"
            return {"ok": True, "op": "canary_status", "verdict": verdict,
                    "workers": reports}

    async def _fleet_canary_stop(self,
                                 message: Dict[str, Any]) -> Dict[str, Any]:
        """Detach the canary fleet-wide (tolerates workers without one)."""
        async with self._gate.read_locked():
            reports: Dict[str, Any] = {}
            for worker in sorted(self.ring.nodes):
                reply = await self._worker_request(worker, dict(message))
                reports[worker] = reply.get("report") if reply.get("ok")                     else {"error": reply.get("error")}
            return {"ok": True, "op": "canary_stop", "workers": reports}

    async def _fleet_promote(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Promote on every worker under the exclusive gate, all-or-nothing.

        The write gate blocks every stream op, so the whole fleet swaps at
        one consistent cut.  If any worker fails its gates (each judges
        its own traffic slice) or errors, the workers that already swapped
        are rolled back -- a fleet serving two models is worse than a
        delayed promotion.
        """
        async with self._gate.write_locked():
            workers: Dict[str, Any] = {}
            promoted = []
            failure: Optional[str] = None
            for worker in sorted(self.ring.nodes):
                try:
                    reply = await self._worker_request(worker, dict(message))
                except (ConnectionError, asyncio.TimeoutError) as error:
                    failure = f"worker {worker!r}: {error}"
                    break
                workers[worker] = {key: value for key, value in reply.items()
                                   if key not in ("ok", "op")}
                if not reply.get("ok"):
                    failure = f"worker {worker!r}: {reply.get('error')}"
                    break
                if reply.get("promoted"):
                    promoted.append(worker)
            unanimous = not failure and len(promoted) == len(self.ring.nodes)
            if promoted and not unanimous:
                for done in promoted:
                    try:
                        await self._worker_request(
                            done, {"op": "rollback",
                                   "reason": "cluster:partial-promotion",
                                   "tenant": message.get("tenant")})
                    except (ConnectionError, asyncio.TimeoutError):
                        pass
            if failure:
                return {"ok": False, "op": "promote",
                        "error": failure + ("; partial promotion rolled back"
                                            if promoted else ""),
                        "workers": workers}
            return {"ok": True, "op": "promote", "promoted": unanimous,
                    "workers": workers}

    async def _fleet_rollback(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Roll every worker back to its pinned previous artifact."""
        async with self._gate.write_locked():
            workers: Dict[str, Any] = {}
            failures = []
            for worker in sorted(self.ring.nodes):
                try:
                    reply = await self._worker_request(worker, dict(message))
                except (ConnectionError, asyncio.TimeoutError) as error:
                    failures.append(f"worker {worker!r}: {error}")
                    continue
                workers[worker] = {key: value for key, value in reply.items()
                                   if key not in ("ok", "op")}
                if not reply.get("ok"):
                    failures.append(
                        f"worker {worker!r}: {reply.get('error')}")
            if failures:
                return {"ok": False, "op": "rollback",
                        "error": "; ".join(failures), "workers": workers}
            return {"ok": True, "op": "rollback", "rolled_back": True,
                    "workers": workers}

    # -- fleet read-outs ----------------------------------------------------- #
    async def _worker_request(self, worker: str,
                              message: Dict[str, Any]) -> Dict[str, Any]:
        trunk = await self._trunk(worker, "json")
        return await trunk.request(message)

    async def _gather_fleet(self,
                            message: Dict[str, Any]) -> Dict[str, Any]:
        """One reply per live ring worker; crashed workers are skipped."""
        replies: Dict[str, Dict[str, Any]] = {}
        for worker in sorted(self.ring.nodes):
            try:
                reply = await self._worker_request(worker, dict(message))
            except (ConnectionError, asyncio.TimeoutError):
                continue
            if reply.get("ok"):
                replies[worker] = reply
        return replies

    async def _merged_stats(self) -> Dict[str, Any]:
        replies = await self._gather_fleet({"op": "snapshot"})
        cluster = ClusterStats.from_snapshots(
            {worker: reply["snapshot"] for worker, reply in replies.items()})
        return _stats_payload(cluster.total)

    async def _merged_snapshot(self) -> Dict[str, Any]:
        replies = await self._gather_fleet({"op": "snapshot"})
        return {"snapshot": {
            "workers": {worker: reply["snapshot"]
                        for worker, reply in replies.items()},
            "cluster": {
                "workers": sorted(self.ring.nodes),
                "workers_live": sum(1 for name in self.ring.nodes
                                    if self.supervisor.alive(name)),
                "worker_restarts": sum(
                    handle.restarts
                    for handle in self.supervisor.workers.values()),
                "sessions_rehomed": self._rehomed_total,
                "rebalances": self._rebalances_total,
                "streams_routed": self._live_route_count(),
            },
        }}

    async def _merged_metrics(self) -> Dict[str, Any]:
        return {"text": await self._fleet_metrics()}

    async def _fleet_metrics(self) -> str:
        replies = await self._gather_fleet({"op": "metrics"})
        pages = [reply["text"] for reply in replies.values()]
        merged = merge_metrics_pages(pages) if pages else ""
        page = merged + self.registry.render()
        self._metrics_cache = page
        return page

    def metrics_text(self) -> str:
        """The last fleet metrics page (sync; for the HTTP scrape server).

        Refreshed by the health loop every ``health_interval_s`` and by
        every ``metrics`` wire op, so a scrape is at most one interval
        stale without ever blocking the scrape thread on worker I/O.
        """
        return self._metrics_cache or self.registry.render()

    # -- health loop --------------------------------------------------------- #
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for worker in sorted(self.ring.nodes):
                if not self.supervisor.alive(worker):
                    try:
                        await self._ensure_worker(worker)
                    except (ConnectionError, asyncio.TimeoutError,
                            RuntimeError):
                        continue
                else:
                    try:
                        await self._worker_request(worker, {"op": "ping"})
                    except (ConnectionError, asyncio.TimeoutError):
                        continue
            try:
                await self._fleet_metrics()
            except (ConnectionError, asyncio.TimeoutError):
                pass
