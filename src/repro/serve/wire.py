"""The serving wire, spelled once (``repro.serve.wire``).

The one module that knows the wire: the binary frame layout, every op's
code and payload, how a frame maps onto the JSON protocol's message dict
(:func:`to_message` / :func:`from_message`), and -- in :data:`OPS` -- how
a cluster router routes the op and which server switch gates it.  The
servers, clients and shard router (:mod:`repro.serve.tcp`,
:mod:`repro.cluster.router`) derive their behaviour from these tables.

At edge sample rates the line-JSON protocol spends more time boxing floats
and scanning for newlines than the model spends scoring, so the binary
alternative is a fixed 10-byte header followed by a struct-packed,
op-specific payload, with pushed samples travelling as raw little-endian
float32 blocks (many samples per frame, so one syscall and one ack
amortise over a whole burst).

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic     0xAB 'V' 'R' 'D'  (first byte is not valid JSON,
                            so the first byte of a connection negotiates the
                            protocol: 0xAB means binary, anything else means
                            line-delimited JSON)
    4       1     version   currently 1
    5       1     op        frame type (below)
    6       4     length    payload byte count (<= MAX_PAYLOAD)
    10      ...   payload   op-specific

The op table (:data:`OPS`).  Every op is one request frame (client ->
server) answered by exactly one reply frame, in request order; payloads
are the field rows of the frame types below::

    op              request  reply  route      gate
    open            0x01     0x81   stream     -
    push            0x02     0x82   stream     -
    close           0x03     0x83   stream     -
    stats           0x04     0x84   merge      -
    ping            0x05     0x85   local      -
    shutdown        0x06     0x86   local      shutdown
    metrics         0x07     0x87   merge      -
    trace           0x08     0x88   worker     -
    snapshot        0x09     0x89   merge      -
    export_session  0x0A     0x8A   worker     handoff
    import_session  0x0B     0x8B   worker     handoff
    canary          0x0C     0x8C   unanimous  -
    canary_status   0x0D     0x8D   unanimous  -
    canary_stop     0x0E     0x8E   unanimous  -
    promote         0x0F     0x8F   unanimous  -
    rollback        0x10     0x90   unanimous  -

Two frames sit outside the pairs, both server -> client: ``0xE1``
ALARM_EVENT (unsolicited: stream id, index, score, threshold, optional
fingerprint of the scoring artifact) and ``0xEE`` ERROR (the reply to a
rejected request: echoed request op, 0 = undeterminable, + message).

Routes: ``stream`` ops are proxied to the worker that owns the stream id;
``local`` ops are answered by whoever receives them; ``merge`` ops are
fleet read-outs (ask every live worker, merge the answers); ``unanimous``
ops are the model-lifecycle controls, which must reach every worker or
none; ``worker`` ops only make sense against one worker process and a
router refuses them.  Gates: ``shutdown`` needs ``allow_shutdown``,
``handoff`` needs ``allow_handoff`` (imports deserialise pickled session
state, so only cluster-internal worker endpoints enable it).

The lifecycle ops carry their message (minus the ``op``/``ok`` envelope)
as one ``<I``-length-prefixed JSON object, as SNAPSHOT_ACK does its
snapshot, so their schema can grow without a version bump.  A peer that
predates their codes answers like for any unknown op code: one ERROR
frame, then it closes the connection.

The OPEN tenant key and the SNAPSHOT/EXPORT/IMPORT ops exist for
``repro.cluster``: the shard router opens tenant-qualified sessions on its
workers and re-homes live sessions between them when the worker ring
changes.  Session state blobs travel as base64 text (they are control-plane
payloads, not hot-path data).  An OPEN frame without a tenant, and an
ALARM_EVENT without a fingerprint, are byte-identical to their pre-cluster
encodings, so old clients and new servers interoperate.

Strings (stream ids, error messages) are ``<H``-length-prefixed UTF-8;
long documents (metrics pages, JSON bodies, state blobs) are
``<I``-length-prefixed.  Sample blocks are C-ordered ``<f4``; the codec
round-trips them *bit-identically* (NaN payload bits, infinities and
subnormals included -- the property suite in
``tests/test_serve/test_wire_properties.py`` holds it to that).  Note the
serving data model is float64: producers that need exact float64 parity
with the JSON protocol must push values that are exactly representable in
float32 (the wire is explicitly a compact, reduced-precision ingest path).

:class:`FrameDecoder` is the streaming decoder: feed it bytes in whatever
chunks the transport delivers (frames may be coalesced or split
arbitrarily) and iterate complete frames out.  Malformed input raises a
:class:`WireProtocolError` subclass; framing corruption is not resyncable,
so servers answer with one ERROR frame and close the connection.

Example -- encode, then round-trip through an arbitrarily chunked stream:

>>> import numpy as np
>>> frame = Push("press-3", np.ones((2, 3), dtype=np.float32))
>>> data = encode(frame)
>>> data[:4] == MAGIC and data[5] == OP_PUSH
True
>>> decoded, consumed = decode_frame(data)
>>> decoded == frame and consumed == len(data)
True
>>> decoder = FrameDecoder()
>>> blob = encode(Open("press-3")) + encode(Ping())
>>> [type(f).__name__ for f in decoder.drain(blob[:7])]   # header split
[]
>>> [type(f).__name__ for f in decoder.drain(blob[7:])]
['Open', 'Ping']

As JSON-protocol messages, and back:

>>> to_message(Open("press-3", tenant="line-2"))
{'op': 'open', 'stream': 'press-3', 'tenant': 'line-2'}
>>> from_message({"ok": True, "op": "push", "accepted": 2}, "reply")
PushAck(accepted=2)
"""

from __future__ import annotations

import json
import struct
from dataclasses import field as _dataclass_field, make_dataclass
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple, Type, Union)

import numpy as np

#: First byte 0xAB cannot start a JSON document, so one peeked byte decides
#: the protocol of a fresh connection.
MAGIC = b"\xabVRD"
VERSION = 1
HEADER = struct.Struct("<4sBBI")          # magic, version, op, payload length
#: Payload byte cap -- bounds both decoder buffering on hostile length
#: prefixes and the largest sample block one PUSH frame may carry.
MAX_PAYLOAD = 1 << 20

OP_OPEN = 0x01
OP_PUSH = 0x02
OP_CLOSE = 0x03
OP_STATS = 0x04
OP_PING = 0x05
OP_SHUTDOWN = 0x06
OP_METRICS = 0x07
OP_TRACE = 0x08
OP_SNAPSHOT = 0x09
OP_EXPORT_SESSION = 0x0A
OP_IMPORT_SESSION = 0x0B
OP_CANARY = 0x0C
OP_CANARY_STATUS = 0x0D
OP_CANARY_STOP = 0x0E
OP_PROMOTE = 0x0F
OP_ROLLBACK = 0x10
OP_OPEN_ACK = 0x81
OP_PUSH_ACK = 0x82
OP_CLOSE_ACK = 0x83
OP_STATS_ACK = 0x84
OP_PING_ACK = 0x85
OP_SHUTDOWN_ACK = 0x86
OP_METRICS_ACK = 0x87
OP_TRACE_ACK = 0x88
OP_SNAPSHOT_ACK = 0x89
OP_EXPORT_SESSION_ACK = 0x8A
OP_IMPORT_SESSION_ACK = 0x8B
OP_CANARY_ACK = 0x8C
OP_CANARY_STATUS_ACK = 0x8D
OP_CANARY_STOP_ACK = 0x8E
OP_PROMOTE_ACK = 0x8F
OP_ROLLBACK_ACK = 0x90
OP_ALARM_EVENT = 0xE1
OP_ERROR = 0xEE


class WireProtocolError(ValueError):
    """Malformed binary wire input (framing or payload structure)."""


class BadMagicError(WireProtocolError):
    """The frame does not start with the protocol magic."""


class BadVersionError(WireProtocolError):
    """The frame carries an unsupported protocol version."""


class BadOpError(WireProtocolError):
    """The frame carries an unknown op code."""


class FrameTooLargeError(WireProtocolError):
    """The length prefix exceeds :data:`MAX_PAYLOAD`."""


class CorruptPayloadError(WireProtocolError):
    """The payload does not parse as its op's declared structure."""


# --------------------------------------------------------------------------- #
# Field codecs: the only code that touches payload bytes
# --------------------------------------------------------------------------- #
class _Scalar:
    """One fixed-width ``struct`` value (``<I``, ``<Q``, ``<d``, ``<B``).

    Every codec has this shape: ``pack(value) -> bytes`` and
    ``unpack(payload, offset) -> (value, next_offset)``, plus ``hint`` (the
    attribute's type) and ``same`` (how two values of the field compare).
    """

    def __init__(self, fmt: str, hint: Any) -> None:
        self._struct = struct.Struct("<" + fmt)
        self.hint = hint

    @staticmethod
    def same(a: Any, b: Any) -> bool:
        # NaN-tolerant so decode(encode(x)) == x holds for the zero-samples
        # p99 sentinel too.
        return a == b or (a != a and b != b)

    def pack(self, value: Any) -> bytes:
        return self._struct.pack(value)

    def unpack(self, payload: bytes, offset: int) -> Tuple[Any, int]:
        end = offset + self._struct.size
        if end > len(payload):
            raise CorruptPayloadError(
                f"truncated {self._struct.format} field")
        return self._struct.unpack_from(payload, offset)[0], end


class _Flag(_Scalar):
    """A bool in one byte."""

    def unpack(self, payload: bytes, offset: int) -> Tuple[bool, int]:
        value, end = super().unpack(payload, offset)
        return bool(value), end


class _Count(_Scalar):
    """An optional non-negative count as ``<q``: -1 on the wire = ``None``."""

    def pack(self, value: Optional[int]) -> bytes:
        return self._struct.pack(-1 if value is None else int(value))

    def unpack(self, payload: bytes, offset: int) \
            -> Tuple[Optional[int], int]:
        value, end = super().unpack(payload, offset)
        return (None if value < 0 else value), end


class _MaybeDouble(_Scalar):
    """An optional double as presence flag + value (``<Bd``)."""

    def pack(self, value: Optional[float]) -> bytes:
        present = value is not None
        return self._struct.pack(present, value if present else 0.0)

    def unpack(self, payload: bytes, offset: int) \
            -> Tuple[Optional[float], int]:
        end = offset + self._struct.size
        if end > len(payload):
            raise CorruptPayloadError("truncated optional-double field")
        present, value = self._struct.unpack_from(payload, offset)
        return (value if present else None), end


class _String(_Scalar):
    """Length-prefixed UTF-8: ``<H`` for ids, ``<I`` for long documents.

    The frame-level :data:`MAX_PAYLOAD` cap still applies at encode time,
    so the 32-bit prefix never admits unbounded buffering.
    """

    def __init__(self, fmt: str, what: str, hint: Any = str) -> None:
        super().__init__(fmt, hint)
        self._what = what
        self._limit = (1 << 8 * self._struct.size) - 1

    def pack(self, value: str) -> bytes:
        data = value.encode("utf-8")
        if len(data) > self._limit:
            raise ValueError(
                f"{self._what} too long for the wire ({len(data)} bytes)")
        return self._struct.pack(len(data)) + data

    def unpack(self, payload: bytes, offset: int) -> Tuple[str, int]:
        start = offset + self._struct.size
        if start > len(payload):
            raise CorruptPayloadError(f"truncated {self._what} length")
        (length,) = self._struct.unpack_from(payload, offset)
        end = start + length
        if end > len(payload):
            raise CorruptPayloadError(
                f"{self._what} length {length} exceeds the remaining payload")
        try:
            return payload[start:end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise CorruptPayloadError(
                f"{self._what} is not valid UTF-8: {error}") from error


class _TrailingString(_String):
    """An optional *last* string: absent on the wire when ``None``.

    Which is what keeps a tenant-less OPEN and a fingerprint-less
    ALARM_EVENT byte-identical to the encodings that predate the field.
    """

    def pack(self, value: Optional[str]) -> bytes:
        return b"" if value is None else super().pack(value)

    def unpack(self, payload: bytes, offset: int) \
            -> Tuple[Optional[str], int]:
        if offset == len(payload):
            return None, offset
        return super().unpack(payload, offset)


class _ClippedString(_String):
    """An ``<H`` string clipped to fit: an over-long error message must
    still produce an ERROR frame, not a second error."""

    def pack(self, value: str) -> bytes:
        data = value.encode("utf-8")[:self._limit]
        return self._struct.pack(len(data)) + data


class _Block(_Scalar):
    """A ``(n_samples, n_channels)`` C-ordered ``<f4`` block, header ``<IH``.

    Always the last field: the declared shape must account for every
    remaining payload byte.  Equality is bitwise (NaN payloads included).
    """

    @staticmethod
    def coerce(samples: Any) -> np.ndarray:
        block = np.asarray(samples)
        if block.ndim == 1:
            block = block[None, :]
        if block.ndim != 2:
            raise ValueError(
                f"sample blocks must be (n_samples, n_channels), "
                f"got ndim={block.ndim}"
            )
        return np.ascontiguousarray(block, dtype="<f4")

    @staticmethod
    def same(a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def pack(self, value: np.ndarray) -> bytes:
        return self._struct.pack(*value.shape) + value.tobytes()

    def unpack(self, payload: bytes, offset: int) -> Tuple[np.ndarray, int]:
        start = offset + self._struct.size
        if start > len(payload):
            raise CorruptPayloadError("truncated PUSH block header")
        n_samples, n_channels = self._struct.unpack_from(payload, offset)
        expected = n_samples * n_channels * 4
        if len(payload) - start != expected:
            raise CorruptPayloadError(
                f"PUSH declares {n_samples}x{n_channels} float32 samples "
                f"({expected} bytes) but carries {len(payload) - start}"
            )
        block = np.frombuffer(payload, dtype="<f4", offset=start,
                              count=n_samples * n_channels)
        return block.reshape(n_samples, n_channels), len(payload)


_U8 = _Scalar("B", int)
_U32 = _Scalar("I", int)
_U64 = _Scalar("Q", int)
_F64 = _Scalar("d", float)
_FLAG = _Flag("B", bool)
_COUNT = _Count("q", Optional[int])
_MAYBE_F64 = _MaybeDouble("Bd", Optional[float])
_STR = _String("H", "string")
_TEXT = _String("I", "text")
_TRAILING_STR = _TrailingString("H", "string", Optional[str])
_CLIPPED_STR = _ClippedString("H", "string")
_BLOCK = _Block("IH", np.ndarray)


# --------------------------------------------------------------------------- #
# Value converters: where a field's wire value and message value differ
# --------------------------------------------------------------------------- #
def _json_text(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def _json_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise CorruptPayloadError(f"text is not valid JSON: {error}") \
            from error


def _request_code(name: Any) -> int:
    op = lookup(name)
    return 0 if op is None else op.request.op


# --------------------------------------------------------------------------- #
# Frame types: one row each
# --------------------------------------------------------------------------- #
_REQUIRED: Any = object()
#: message "key" of a field whose (object) value *is* the message body
_BODY = "*"


class _Field(NamedTuple):
    """One column of a frame row."""

    attr: str                      #: constructor parameter / attribute name
    codec: Any                     #: how it travels in the payload
    key: str = ""                  #: JSON-protocol message key ("" = attr)
    #: constructor default; a field that has one is optional in messages
    #: too: omitted (not null) when ``None``, defaulted when absent
    default: Any = _REQUIRED
    to_message: Optional[Callable[[Any], Any]] = None    #: attr -> message
    from_message: Optional[Callable[[Any], Any]] = None  #: message -> attr


_f = _Field


class Frame:
    """Base of every frame type; the rows below derive the subclasses.

    A frame type is a plain record (positional/keyword constructor, one
    attribute per field) that knows its ``op`` code, its ``role``
    (``"request"``: client -> server, ``"reply"``: server -> client) and
    the constant ``envelope`` of its JSON-protocol message.  Payload
    encoding, decoding and equality all walk the row's field codecs.
    """

    __slots__ = ()
    op: int
    role: str
    envelope: Dict[str, Any]
    #: the row's ``_Field`` columns as plain tuples (fast to unpack);
    #: ``_packers`` / ``_unpackers`` are derived from it in ``_frame`` too
    _fields: Tuple[tuple, ...]

    def encode_payload(self) -> bytes:
        return b"".join([pack(getattr(self, attr))
                         for attr, pack in self._packers])

    @classmethod
    def decode_payload(cls, payload: bytes) -> "Frame":
        # Bypasses __init__: the values come straight off the wire in
        # their canonical types, so there is nothing to coerce.
        frame = object.__new__(cls)
        offset = 0
        try:
            for attr, unpack in cls._unpackers:
                value, offset = unpack(payload, offset)
                setattr(frame, attr, value)
        except CorruptPayloadError as error:
            raise CorruptPayloadError(
                f"{cls.__name__} payload: {error}") from error
        if offset != len(payload):
            raise CorruptPayloadError(
                f"{cls.__name__} payload has {len(payload) - offset} "
                f"trailing bytes")
        return frame

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(codec.same(getattr(self, attr), getattr(other, attr))
                   for attr, codec, *_ in self._fields)


#: Every frame type, in definition order (requests, replies, event, error).
FRAME_TYPES: List[Type[Frame]] = []


def _frame(name: str, op_code: int, *fields: _Field, doc: str = "",
           role: str = "", envelope: Optional[Dict[str, Any]] = None) \
        -> Type[Frame]:
    """Derive one frame class from its row.

    ``role`` and ``envelope`` are given only for the two frames outside
    the request/reply pairs; :data:`OPS` fills them in for the rest.
    """
    fields = tuple(f._replace(key=f.key or f.attr) for f in fields)
    namespace: Dict[str, Any] = {
        "__doc__": doc, "__module__": __name__, "op": op_code, "role": role,
        "envelope": envelope, "_fields": tuple(tuple(f) for f in fields),
        "_packers": tuple((f.attr, f.codec.pack) for f in fields),
        "_unpackers": tuple((f.attr, f.codec.unpack) for f in fields),
    }
    coerced = [(f.attr, f.codec.coerce) for f in fields
               if hasattr(f.codec, "coerce")]
    if coerced:
        def __post_init__(self: Frame) -> None:
            for attr, coerce in coerced:
                setattr(self, attr, coerce(getattr(self, attr)))
        namespace["__post_init__"] = __post_init__
    columns = [
        (f.attr, f.codec.hint) if f.default is _REQUIRED
        else (f.attr, f.codec.hint, _dataclass_field(default=f.default))
        for f in fields]
    frame_type = make_dataclass(name, columns, bases=(Frame,),
                                namespace=namespace, eq=False, slots=True)
    FRAME_TYPES.append(frame_type)
    return frame_type


def _lifecycle(name: str, op_code: int, doc: str) -> Type[Frame]:
    """A frame whose one field is its whole JSON-protocol message body."""
    body = _f("body", _TEXT, _BODY, to_message=_json_value,
              from_message=_json_text)
    return _frame(name, op_code, body, doc=doc)


Open = _frame(
    "Open", OP_OPEN, _f("stream", _STR),
    _f("max_samples", _COUNT, default=None),
    _f("tenant", _TRAILING_STR, default=None),
    doc="""Open a scoring session (``max_samples=None`` = unbounded).

    ``tenant`` selects the packaged artifact on a multi-tenant cluster
    worker; it is an *optional trailing* string so a tenant-less OPEN
    stays byte-identical to the pre-cluster wire format (and old frames
    decode on new servers, and vice versa).
    """)
Push = _frame(
    "Push", OP_PUSH, _f("stream", _STR),
    _f("samples", _BLOCK, "values",        # the serving data model is float64
       to_message=lambda block: np.asarray(block, dtype=np.float64)),
    doc="""A batched sample block: ``samples`` is ``(n_samples, n_channels)``.

    Two pushes are equal iff their ids match and their float32 blocks are
    byte-identical (NaN payloads included).
    """)
Close = _frame("Close", OP_CLOSE, _f("stream", _STR))
Stats = _frame("Stats", OP_STATS)
Ping = _frame("Ping", OP_PING)
Shutdown = _frame("Shutdown", OP_SHUTDOWN)
Metrics = _frame("Metrics", OP_METRICS)
Trace = _frame("Trace", OP_TRACE)
Snapshot = _frame("Snapshot", OP_SNAPSHOT)
ExportSession = _frame(
    "ExportSession", OP_EXPORT_SESSION, _f("stream", _STR),
    doc="Drain and detach one live session for a cluster handoff.")
ImportSession = _frame(
    "ImportSession", OP_IMPORT_SESSION, _f("tenant", _STR),
    _f("state", _TEXT),
    doc="Attach an exported session blob under the given tenant.")
Canary = _lifecycle(
    "Canary", OP_CANARY,
    "Attach a canary: artifact path, fraction, gates, watch policy.")
CanaryStatus = _lifecycle("CanaryStatus", OP_CANARY_STATUS,
                          "Evaluate the attached canary.")
CanaryStop = _lifecycle("CanaryStop", OP_CANARY_STOP,
                        "Detach the canary without promoting.")
Promote = _lifecycle("Promote", OP_PROMOTE,
                     "Promote the canary's candidate (``force`` skips gates).")
Rollback = _lifecycle("Rollback", OP_ROLLBACK,
                      "Hot-swap back to the pinned previous artifact.")

OpenAck = _frame(
    "OpenAck", OP_OPEN_ACK, _f("stream", _STR), _f("window", _U32),
    _f("incremental", _FLAG), _f("threshold", _MAYBE_F64))
PushAck = _frame("PushAck", OP_PUSH_ACK, _f("accepted", _U32))
CloseAck = _frame(
    "CloseAck", OP_CLOSE_ACK, _f("stream", _STR),
    _f("samples_pushed", _U64), _f("samples_scored", _U64),
    _f("samples_dropped", _U64), _f("adaptation_events", _U64))
StatsAck = _frame(
    "StatsAck", OP_STATS_ACK, _f("live_sessions", _U64),
    _f("samples_pushed", _U64), _f("samples_scored", _U64),
    _f("samples_dropped", _U64), _f("flushes", _U64),
    _f("mean_batch_size", _F64),
    # NaN on the wire, ``null`` in messages, when nothing was scored yet
    _f("queue_delay_p99_s", _F64,
       to_message=lambda p99: None if p99 != p99 else p99,
       from_message=lambda p99: float("nan") if p99 is None else p99))
PingAck = _frame("PingAck", OP_PING_ACK)
ShutdownAck = _frame("ShutdownAck", OP_SHUTDOWN_ACK)
MetricsAck = _frame(
    "MetricsAck", OP_METRICS_ACK, _f("text", _TEXT),
    doc="Prometheus text exposition snapshot (UTF-8, format 0.0.4).")
TraceAck = _frame(
    "TraceAck", OP_TRACE_ACK,
    _f("json_text", _TEXT, "trace", to_message=_json_value,
       from_message=_json_text),
    doc="""Chrome trace snapshot, carried as its JSON text.

    Kept as text (not re-parsed) so the frame round-trips byte-exactly
    and a dump can be written straight to a ``.json`` file for Perfetto.
    A full default ring (4096 events) serialises well under
    :data:`MAX_PAYLOAD`; far larger rings should be dumped through
    ``--trace-out`` or ``GET /trace`` instead, which have no frame cap.
    """)
SnapshotAck = _frame(
    "SnapshotAck", OP_SNAPSHOT_ACK,
    _f("json_text", _TEXT, "snapshot", to_message=_json_value,
       from_message=_json_text),
    doc="""Rich service state as JSON text (counters, histogram states).

    Unlike STATS_ACK's fixed struct, the snapshot schema can grow without
    a wire version bump; :class:`repro.cluster.ClusterStats` merges these
    across workers.
    """)
ExportSessionAck = _frame(
    "ExportSessionAck", OP_EXPORT_SESSION_ACK, _f("stream", _STR),
    _f("tenant", _STR), _f("state", _TEXT),
    doc="""The detached session: tenant key + base64 state blob.

    The blob stays base64 text end to end (message layer included) --
    handoffs are rare control-plane events, so the 4/3 size tax buys
    strict-JSON transparency on the line protocol and in logs.
    """)
ImportSessionAck = _frame(
    "ImportSessionAck", OP_IMPORT_SESSION_ACK, _f("stream", _STR),
    doc="Confirms the stream id now served by the importing worker.")
CanaryAck = _lifecycle("CanaryAck", OP_CANARY_ACK,
                       "Canary attached: fingerprint, fraction, gates.")
CanaryStatusAck = _lifecycle("CanaryStatusAck", OP_CANARY_STATUS_ACK,
                             "The canary report (fleet shape on a router).")
CanaryStopAck = _lifecycle("CanaryStopAck", OP_CANARY_STOP_ACK,
                           "The detached canary's final report.")
PromoteAck = _lifecycle("PromoteAck", OP_PROMOTE_ACK,
                        "Promotion outcome (``promoted`` may be false).")
RollbackAck = _lifecycle("RollbackAck", OP_ROLLBACK_ACK, "Rollback outcome.")

AlarmEvent = _frame(
    "AlarmEvent", OP_ALARM_EVENT, _f("stream", _STR), _f("index", _U64),
    _f("score", _F64), _f("threshold", _MAYBE_F64),
    _f("fingerprint", _TRAILING_STR, default=None),
    role="reply", envelope={"event": "alarm"},
    doc="""A pushed alarm notification.

    ``fingerprint`` identifies the artifact that scored the alarming
    sample; like ``Open.tenant`` it is an *optional trailing* string,
    so fingerprint-less events stay byte-identical to the pre-lifecycle
    wire format (old frames decode on new clients, and vice versa).
    """)
ErrorReply = _frame(
    "ErrorReply", OP_ERROR,
    _f("request_op", _U8, "op", from_message=_request_code,
       to_message=lambda code: _REQUEST_NAMES.get(code)),
    _f("message", _CLIPPED_STR, "error", from_message=str),
    role="reply", envelope={"ok": False},
    doc="""Structured error: ``request_op`` echoes the offending frame's op.

    ``request_op`` 0 means the op could not be determined (framing-level
    corruption); after such an error the server closes the connection
    because the byte stream cannot be resynchronised.
    """)


# --------------------------------------------------------------------------- #
# The op table
# --------------------------------------------------------------------------- #
class Op(NamedTuple):
    """One op: its frames, its cluster route and its server gate."""

    name: str
    request: Type[Frame]
    reply: Type[Frame]
    #: ``stream | local | merge | unanimous | worker`` (module docstring)
    route: str
    #: server switch that must be on: ``None | "shutdown" | "handoff"``
    gate: Optional[str] = None


OPS: Dict[str, Op] = {op.name: op for op in (
    Op("open", Open, OpenAck, "stream"),
    Op("push", Push, PushAck, "stream"),
    Op("close", Close, CloseAck, "stream"),
    Op("stats", Stats, StatsAck, "merge"),
    Op("ping", Ping, PingAck, "local"),
    Op("shutdown", Shutdown, ShutdownAck, "local", "shutdown"),
    Op("metrics", Metrics, MetricsAck, "merge"),
    Op("trace", Trace, TraceAck, "worker"),
    Op("snapshot", Snapshot, SnapshotAck, "merge"),
    Op("export_session", ExportSession, ExportSessionAck, "worker",
       "handoff"),
    Op("import_session", ImportSession, ImportSessionAck, "worker",
       "handoff"),
    Op("canary", Canary, CanaryAck, "unanimous"),
    Op("canary_status", CanaryStatus, CanaryStatusAck, "unanimous"),
    Op("canary_stop", CanaryStop, CanaryStopAck, "unanimous"),
    Op("promote", Promote, PromoteAck, "unanimous"),
    Op("rollback", Rollback, RollbackAck, "unanimous"),
)}
for _op in OPS.values():
    _op.request.role, _op.request.envelope = "request", {"op": _op.name}
    _op.reply.role, _op.reply.envelope = "reply", {"ok": True,
                                                   "op": _op.name}
_DECODERS = {frame_type.op: frame_type for frame_type in FRAME_TYPES}

__all__ = [
    "MAGIC", "VERSION", "HEADER", "MAX_PAYLOAD",
    "WireProtocolError", "BadMagicError", "BadVersionError", "BadOpError",
    "FrameTooLargeError", "CorruptPayloadError",
    "Frame", "FRAME_TYPES", "Op", "OPS", "lookup", "to_message",
    "from_message", "encode", "decode_frame", "FrameDecoder",
    # every OP_* code and every frame class the rows above define
    *(name for name in dir() if name.startswith("OP_")),
    *(frame_type.__name__ for frame_type in FRAME_TYPES),
]
_REQUEST_NAMES = {op.request.op: op.name for op in OPS.values()}


def lookup(name: Any) -> Optional[Op]:
    """The :data:`OPS` row for ``name``, or ``None`` -- also for the
    non-string values a hostile JSON line may put under ``"op"``."""
    return OPS.get(name) if isinstance(name, str) else None


# --------------------------------------------------------------------------- #
# Frames <-> JSON-protocol messages
# --------------------------------------------------------------------------- #
def to_message(frame: Frame) -> Dict[str, Any]:
    """The JSON-protocol dict a frame stands for: its envelope + fields.

    Raises :class:`CorruptPayloadError` for a lifecycle frame whose body
    is not a JSON object (the framing is intact: the connection goes on).
    """
    message = dict(frame.envelope)
    for attr, _, key, default, convert, _ in frame._fields:
        value = getattr(frame, attr)
        if value is None and default is not _REQUIRED:
            continue
        if convert is not None:
            value = convert(value)
        if key != _BODY:
            message[key] = value
        elif isinstance(value, dict):
            message = {**value, **message}       # the envelope wins
        else:
            raise CorruptPayloadError(
                f"{type(frame).__name__} body must be a JSON object, "
                f"got {type(value).__name__}")
    return message


def from_message(message: Dict[str, Any], role: str) -> Frame:
    """The frame that carries ``message`` in the direction ``role``.

    ``"request"`` picks the op's request frame; ``"reply"`` its ack, an
    ERROR for a not-``ok`` reply, an ALARM_EVENT for an event.  Raises
    ``ValueError`` for an unknown op, ``KeyError`` for a missing field.
    """
    if role == "reply" and "event" in message:
        frame_type = AlarmEvent
    elif role == "reply" and not message.get("ok"):
        frame_type = ErrorReply
    else:
        op = lookup(message.get("op"))
        if op is None:
            raise ValueError(f"unknown op {message.get('op')!r}")
        frame_type = op.request if role == "request" else op.reply
    values = []
    for _, _, key, default, _, convert in frame_type._fields:
        if key == _BODY:
            value = {name: item for name, item in message.items()
                     if name not in frame_type.envelope}
        elif default is _REQUIRED:
            value = message[key]
        else:
            value = message.get(key)
            if value is None:
                value = default
        if convert is not None:
            value = convert(value)
        values.append(value)
    return frame_type(*values)


# --------------------------------------------------------------------------- #
# Encode / decode
# --------------------------------------------------------------------------- #
def encode(frame: Frame) -> bytes:
    """Serialise one frame (header + payload) to bytes."""
    payload = frame.encode_payload()
    if len(payload) > MAX_PAYLOAD:
        raise FrameTooLargeError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD}); split the sample block into smaller frames"
        )
    return HEADER.pack(MAGIC, VERSION, frame.op, len(payload)) + payload


def decode_frame(buffer: Union[bytes, bytearray, memoryview],
                 offset: int = 0) -> Tuple[Optional[Frame], int]:
    """Decode one frame at ``offset``; return ``(frame, next_offset)``.

    Returns ``(None, offset)`` when the buffer holds only part of the
    frame (read more bytes and retry); raises a :class:`WireProtocolError`
    subclass when what *is* there is malformed.  The oversized-length check
    runs as soon as the header is complete, so a hostile length prefix can
    never make the caller buffer gigabytes.
    """
    buffer = memoryview(buffer)
    available = len(buffer) - offset
    if available < 1:
        return None, offset
    # Validate the magic byte-by-byte as it arrives: corruption is
    # detectable from the very first byte, before a full header is read.
    if available >= HEADER.size:
        magic, version, op, length = HEADER.unpack_from(buffer, offset)
    else:
        magic = bytes(buffer[offset:offset + min(available, len(MAGIC))])
    if magic != MAGIC[:len(magic)]:
        raise BadMagicError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            f"this does not look like the repro binary wire protocol"
        )
    if available < HEADER.size:
        return None, offset
    if version != VERSION:
        raise BadVersionError(
            f"unsupported wire protocol version {version} "
            f"(this server speaks version {VERSION})"
        )
    if op not in _DECODERS:
        raise BadOpError(f"unknown op code 0x{op:02X}")
    if length > MAX_PAYLOAD:
        raise FrameTooLargeError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})"
        )
    end = offset + HEADER.size + length
    if len(buffer) < end:
        return None, offset
    payload = bytes(buffer[offset + HEADER.size:end])
    return _DECODERS[op].decode_payload(payload), end


class FrameDecoder:
    """Streaming decoder: feed arbitrary chunks, iterate complete frames.

    Transports deliver bytes with no respect for frame boundaries -- one
    read may carry half a frame or twenty coalesced ones.  The decoder
    buffers exactly the unconsumed tail and compacts it after each drain,
    so memory stays bounded by one frame (enforced by ``MAX_PAYLOAD``) plus
    one read chunk.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decoded into a complete frame."""
        return len(self._buffer) - self._offset

    def feed(self, data: Union[bytes, bytearray, memoryview]) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame currently buffered (may be none)."""
        while True:
            frame, self._offset = decode_frame(self._buffer, self._offset)
            if frame is None:
                break
            yield frame
        if self._offset:
            del self._buffer[:self._offset]
            self._offset = 0

    def drain(self, data: Union[bytes, bytearray, memoryview] = b"") \
            -> List[Frame]:
        """``feed`` + collect all complete frames, as a list."""
        if data:
            self.feed(data)
        return list(self.frames())
