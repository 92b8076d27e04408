"""Property tests: the binary wire codec round-trips every frame exactly.

``decode(encode(x)) == x`` for every frame type the op table defines
(``wire.FRAME_TYPES`` -- the example list below is checked against it, so a
new op cannot be forgotten), with float32 sample blocks
*bit-identical* (NaN payload bits, infinities, subnormals and signed zeros
included), from the empty batch up to the exact ``MAX_PAYLOAD`` boundary,
and through a :class:`~repro.serve.wire.FrameDecoder` fed arbitrarily
chunked / coalesced reads.  Re-encoding a decoded frame must also
reproduce the original bytes, so the wire format itself (not just the
Python objects) is canonical.  And the encodings of every frame type that
predates the table are pinned byte for byte (``_GOLDEN``, generated from
the hand-written encoder the table replaced).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import wire

# Any unicode except surrogates (unencodable in UTF-8); ids and messages
# on the wire are <H-length-prefixed UTF-8.
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=48)
_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_any_double = st.floats(allow_nan=True, allow_infinity=True)
_maybe_threshold = st.none() | _finite
# Metrics pages / trace JSON ride in <I-length-prefixed text fields that
# may span many lines; exercise well past the <H boundary used elsewhere.
_long_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=90_000)


@st.composite
def _sample_blocks(draw, min_samples=0, max_samples=16, max_channels=4):
    """float32 blocks built from raw bit patterns.

    Drawing uint32 bits and reinterpreting as float32 covers the entire
    value space uniformly at the *bit* level: quiet and signalling NaNs
    with arbitrary payloads, both infinities, subnormals and both zeros --
    exactly the values a round-trip must not canonicalise.
    """
    n = draw(st.integers(min_samples, max_samples))
    c = draw(st.integers(1, max_channels))
    bits = draw(hnp.arrays(dtype=np.uint32, shape=(n, c),
                           elements=st.integers(0, 2**32 - 1)))
    return bits.view(np.float32)


_json_bodies = st.dictionaries(
    st.text(max_size=8), st.none() | st.booleans() | st.integers() | _text,
    max_size=4).map(json.dumps)
_LIFECYCLE_TYPES = [
    frame_type
    for name in ("canary", "canary_status", "canary_stop", "promote",
                 "rollback")
    for frame_type in (wire.OPS[name].request, wire.OPS[name].reply)]

_frames = st.one_of(
    st.builds(wire.Open, _text, st.none() | st.integers(0, 2**62),
              st.none() | _text),
    st.builds(wire.Push, _text, _sample_blocks()),
    st.builds(wire.Close, _text),
    st.builds(wire.Stats),
    st.builds(wire.Ping),
    st.builds(wire.Shutdown),
    st.builds(wire.OpenAck, _text, _u32, st.booleans(), _maybe_threshold),
    st.builds(wire.PushAck, _u32),
    st.builds(wire.CloseAck, _text, _u64, _u64, _u64, _u64),
    st.builds(wire.StatsAck, _u64, _u64, _u64, _u64, _u64,
              _any_double, _any_double),
    st.builds(wire.PingAck),
    st.builds(wire.ShutdownAck),
    st.builds(wire.AlarmEvent, _text, _u64, _finite, _maybe_threshold,
              st.none() | _text),
    st.builds(wire.ErrorReply, st.integers(0, 255), _text),
    st.builds(wire.Metrics),
    st.builds(wire.Trace),
    st.builds(wire.MetricsAck, _long_text),
    st.builds(wire.TraceAck, _long_text),
    st.builds(wire.Snapshot),
    st.builds(wire.SnapshotAck, _long_text),
    st.builds(wire.ExportSession, _text),
    st.builds(wire.ExportSessionAck, _text, _text, _long_text),
    st.builds(wire.ImportSession, _text, _long_text),
    st.builds(wire.ImportSessionAck, _text),
    *(st.builds(frame_type, _json_bodies) for frame_type in _LIFECYCLE_TYPES),
)

_EXAMPLE_OF_EVERY_OP = [
    wire.Open("press-3", max_samples=None),
    wire.Open("press-3", max_samples=0),
    wire.Push("press-3", np.zeros((2, 3), dtype=np.float32)),
    wire.Close("press-3"),
    wire.Stats(),
    wire.Ping(),
    wire.Shutdown(),
    wire.OpenAck("press-3", window=32, incremental=True, threshold=None),
    wire.OpenAck("press-3", window=32, incremental=False, threshold=1.5),
    wire.PushAck(accepted=64),
    wire.CloseAck("press-3", 200, 169, 0, 2),
    wire.StatsAck(3, 600, 500, 0, 12, 41.7, float("nan")),
    wire.PingAck(),
    wire.ShutdownAck(),
    wire.AlarmEvent("press-3", 57, 9.25, threshold=1.5),
    wire.AlarmEvent("press-3", 57, 9.25, threshold=None),
    wire.ErrorReply(wire.OP_PUSH, "push needs a non-empty sample block"),
    wire.ErrorReply(0, "bad frame magic"),
    wire.Metrics(),
    wire.Trace(),
    wire.MetricsAck("# HELP x_total X.\n# TYPE x_total counter\n"
                    "x_total 3\n"),
    wire.MetricsAck(""),
    wire.TraceAck('{"traceEvents":[],"otherData":{"dropped":0}}'),
    wire.Open("press-3", max_samples=5000, tenant="line-2"),
    wire.AlarmEvent("press-3", 57, 9.25, 1.5, fingerprint="0123456789abcdef"),
    wire.Snapshot(),
    wire.SnapshotAck('{"services":{"default":{"fingerprint":null}}}'),
    wire.ExportSession("press-3"),
    wire.ExportSessionAck("press-3", "default", "c3RhdGU="),
    wire.ImportSession("default", "c3RhdGU="),
    wire.ImportSessionAck("press-3"),
    wire.Canary('{"artifact":"/srv/b","fraction":0.25}'),
    wire.CanaryStatus("{}"),
    wire.CanaryStop('{"tenant":"line-2"}'),
    wire.Promote('{"force":true}'),
    wire.Rollback('{"reason":"manual"}'),
    wire.CanaryAck('{"fingerprint":"0123","fraction":0.25,"gates":{}}'),
    wire.CanaryStatusAck('{"report":{"verdict":"undecided"}}'),
    wire.CanaryStopAck('{"report":{"samples":0}}'),
    wire.PromoteAck('{"promoted":false}'),
    wire.RollbackAck('{"rolled_back":true}'),
]


def _assert_roundtrip(frame):
    data = wire.encode(frame)
    decoded, consumed = wire.decode_frame(data)
    assert consumed == len(data), "decoder must consume the whole frame"
    assert decoded == frame
    # The wire form is canonical: re-encoding reproduces the exact bytes.
    assert wire.encode(decoded) == data


@settings(deadline=None)
@given(_frames)
def test_roundtrip_any_frame(frame):
    _assert_roundtrip(frame)


@pytest.mark.parametrize(
    "frame", _EXAMPLE_OF_EVERY_OP,
    ids=lambda frame: f"0x{frame.op:02X}-{type(frame).__name__}")
def test_roundtrip_every_op(frame):
    # Deterministic floor under the property test: every frame type
    # round-trips even if a hypothesis run draws a skewed op mix.
    _assert_roundtrip(frame)


def test_examples_cover_every_frame_type_the_table_defines():
    assert {type(frame) for frame in _EXAMPLE_OF_EVERY_OP} \
        == set(wire.FRAME_TYPES)
    # ... and the table is closed: each op's two frames, the event, the
    # error, one distinct code each.
    paired = {frame_type for op in wire.OPS.values()
              for frame_type in (op.request, op.reply)}
    assert paired | {wire.AlarmEvent, wire.ErrorReply} \
        == set(wire.FRAME_TYPES)
    assert len({frame_type.op for frame_type in wire.FRAME_TYPES}) \
        == len(wire.FRAME_TYPES) == 2 * len(wire.OPS) + 2


def test_module_docstring_tables_every_op():
    for op in wire.OPS.values():
        row = [line.split() for line in wire.__doc__.splitlines()
               if line.split()[:1] == [op.name]]
        assert row == [[op.name, f"0x{op.request.op:02X}",
                        f"0x{op.reply.op:02X}", op.route, op.gate or "-"]]


NAN = float("nan")
# (frame type, constructor args, wire.encode(...).hex()) for every frame
# type that predates the op table, generated from the hand-written encoder
# it replaced: "byte-identical" is checked here, not promised.
_GOLDEN = [
    ("Open", ('press-3',),
     "ab565244010111000000070070726573732d33ffffffffffffffff"),
    ("Open", ('press-3', 0),
     "ab565244010111000000070070726573732d330000000000000000"),
    ("Open", ('press-3', 5000, 'tenant-a'),
     "ab56524401011b000000070070726573732d338813000000000000080074656e616e742d61"),
    ("Open", ('press-3', None, 'tenant-a'),
     "ab56524401011b000000070070726573732d33ffffffffffffffff080074656e616e742d61"),
    ("Push", ('press-3', [[1.0, -2.5, 0.0], [3.25, 0.001, 7.0]]),
     "ab565244010227000000070070726573732d330200000003000000803f000020c000000000000050406f12833a0000e040"),
    ("Push", ("idle", np.empty((0, 3), dtype=np.float32)),
     "ab56524401020c000000040069646c65000000000300"),
    ("Close", ('press-3',),
     "ab565244010309000000070070726573732d33"),
    ("Stats", (),
     "ab565244010400000000"),
    ("Ping", (),
     "ab565244010500000000"),
    ("Shutdown", (),
     "ab565244010600000000"),
    ("Metrics", (),
     "ab565244010700000000"),
    ("Trace", (),
     "ab565244010800000000"),
    ("Snapshot", (),
     "ab565244010900000000"),
    ("ExportSession", ('press-3',),
     "ab565244010a09000000070070726573732d33"),
    ("ImportSession", ('default', 'c3RhdGU='),
     "ab565244010b15000000070064656661756c7408000000633352686447553d"),
    ("OpenAck", ('press-3', 32, True, None),
     "ab565244018117000000070070726573732d332000000001000000000000000000"),
    ("OpenAck", ('press-3', 32, False, 1.5),
     "ab565244018117000000070070726573732d33200000000001000000000000f83f"),
    ("PushAck", (64,),
     "ab56524401820400000040000000"),
    ("CloseAck", ('press-3', 200, 169, 0, 2),
     "ab565244018329000000070070726573732d33c800000000000000a90000000000000000000000000000000200000000000000"),
    ("StatsAck", (3, 600, 500, 0, 12, 41.7, NAN),
     "ab56524401843800000003000000000000005802000000000000f40100000000000000000000000000000c000000000000009a99999999d94440000000000000f87f"),
    ("StatsAck", (3, 600, 500, 1, 12, 41.7, 0.004),
     "ab56524401843800000003000000000000005802000000000000f40100000000000001000000000000000c000000000000009a99999999d94440fca9f1d24d62703f"),
    ("PingAck", (),
     "ab565244018500000000"),
    ("ShutdownAck", (),
     "ab565244018600000000"),
    ("MetricsAck", ('# TYPE x_total counter\nx_total 3\n',),
     "ab5652440187250000002100000023205459504520785f746f74616c20636f756e7465720a785f746f74616c20330a"),
    ("TraceAck", ('{"traceEvents":[]}',),
     "ab565244018816000000120000007b2274726163654576656e7473223a5b5d7d"),
    ("SnapshotAck", ('{"services":{}}',),
     "ab5652440189130000000f0000007b227365727669636573223a7b7d7d"),
    ("ExportSessionAck", ('press-3', 'default', 'c3RhdGU='),
     "ab565244018a1e000000070070726573732d33070064656661756c7408000000633352686447553d"),
    ("ImportSessionAck", ('press-3',),
     "ab565244018b09000000070070726573732d33"),
    ("AlarmEvent", ('press-3', 57, 9.25, 1.5),
     "ab56524401e122000000070070726573732d333900000000000000000000000080224001000000000000f83f"),
    ("AlarmEvent", ('press-3', 57, 9.25, None),
     "ab56524401e122000000070070726573732d3339000000000000000000000000802240000000000000000000"),
    ("AlarmEvent", ('press-3', 57, 9.25, 1.5, '0123456789abcdef'),
     "ab56524401e134000000070070726573732d333900000000000000000000000080224001000000000000f83f100030313233343536373839616263646566"),
    ("ErrorReply", (2, 'push needs a non-empty sample block'),
     "ab56524401ee2600000002230070757368206e656564732061206e6f6e2d656d7074792073616d706c6520626c6f636b"),
    ("ErrorReply", (0, 'bad frame magic é'),
     "ab56524401ee15000000001200626164206672616d65206d6167696320c3a9"),
]


@pytest.mark.parametrize(
    "name, args, expected", _GOLDEN,
    ids=[f"{index}-{name}" for index, (name, _, _) in enumerate(_GOLDEN)])
def test_encodings_are_byte_identical_to_the_pre_table_encoder(
        name, args, expected):
    data = wire.encode(getattr(wire, name)(*args))
    assert data.hex() == expected
    # Old bytes also decode to the same frame, and canonically.
    decoded, consumed = wire.decode_frame(bytes.fromhex(expected))
    assert consumed == len(data)
    assert wire.encode(decoded) == data


def test_push_preserves_every_special_float_bit_pattern():
    bits = np.array([
        0x00000000,  # +0.0
        0x80000000,  # -0.0
        0x00000001,  # smallest positive subnormal
        0x807FFFFF,  # largest negative subnormal
        0x7F800000,  # +inf
        0xFF800000,  # -inf
        0x7FC00000,  # canonical quiet NaN
        0x7F800001,  # signalling NaN
        0xFFC00123,  # negative NaN with payload bits
        0x7F7FFFFF,  # float32 max
    ], dtype=np.uint32).reshape(5, 2)
    frame = wire.Push("special", bits.view(np.float32))
    decoded, _ = wire.decode_frame(wire.encode(frame))
    assert decoded.samples.tobytes() == bits.view(np.float32).tobytes()
    assert decoded == frame


def test_empty_batch_roundtrips():
    frame = wire.Push("idle", np.empty((0, 3), dtype=np.float32))
    decoded, _ = wire.decode_frame(wire.encode(frame))
    assert decoded.samples.shape == (0, 3)
    assert decoded == frame


def test_max_size_batch_is_exactly_representable():
    # id "smax" (4 bytes) -> payload = 2 + 4 + 6 + 4 * n; n chosen so the
    # payload lands exactly on MAX_PAYLOAD.
    n = (wire.MAX_PAYLOAD - 12) // 4
    block = np.arange(n, dtype=np.float32).reshape(n, 1)
    frame = wire.Push("smax", block)
    data = wire.encode(frame)
    assert len(data) == wire.HEADER.size + wire.MAX_PAYLOAD
    decoded, consumed = wire.decode_frame(data)
    assert consumed == len(data)
    assert decoded == frame

    over = wire.Push("smax", np.zeros((n + 1, 1), dtype=np.float32))
    with pytest.raises(wire.FrameTooLargeError):
        wire.encode(over)


@settings(deadline=None, max_examples=60)
@given(st.lists(_frames, max_size=8), st.data())
def test_streaming_decoder_survives_arbitrary_chunking(frames, data):
    blob = b"".join(wire.encode(frame) for frame in frames)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(blob)), max_size=8), label="cuts"))
    decoder = wire.FrameDecoder()
    decoded = []
    previous = 0
    for cut in [*cuts, len(blob)]:
        decoded.extend(decoder.drain(blob[previous:cut]))
        previous = cut
    assert decoded == frames
    assert decoder.pending_bytes == 0


@settings(deadline=None, max_examples=40)
@given(st.lists(_frames, min_size=1, max_size=6))
def test_coalesced_single_read(frames):
    # The opposite extreme of chunking: every frame in one read.
    decoder = wire.FrameDecoder()
    decoded = decoder.drain(b"".join(wire.encode(frame) for frame in frames))
    assert decoded == frames
    assert decoder.pending_bytes == 0


@settings(deadline=None, max_examples=40)
@given(_frames)
def test_byte_at_a_time_decode(frame):
    data = wire.encode(frame)
    decoder = wire.FrameDecoder()
    decoded = []
    for index in range(len(data)):
        decoded.extend(decoder.drain(data[index:index + 1]))
        if index < len(data) - 1:
            assert not decoded, "no frame may surface before its last byte"
    assert decoded == [frame]
    assert decoder.pending_bytes == 0
