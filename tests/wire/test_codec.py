"""Wire codec: property-tested round-trips and adversarial frames.

The round-trip half derives a hypothesis strategy from each registered
message class's field annotations, so a message type added tomorrow is
property-tested automatically.  The adversarial half feeds the reader
truncated, oversized, and hand-assembled hostile frames and requires a
*typed* error (or clean ``IncompleteReadError``) immediately — a framing
violation must never hang the reader coroutine waiting for bytes that
will not come.
"""

import asyncio
import dataclasses
import struct
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.reliability import AckFrame, DataFrame
from repro.core.messages import GimmeMsg, TokenMsg
from repro.errors import CodecError, FrameError
from repro.wire.codec import (
    MAX_DEPTH,
    MAX_FRAME,
    WIRE_VERSION,
    FrameReader,
    decode_body,
    encode_frame,
    read_frame,
    register_message,
    registered_messages,
)
from repro.wire.service import AcquireReply, StatusReply, StatusRequest

# -- strategies derived from the registry ------------------------------------------

_SCALARS = {
    int: st.integers(min_value=-(2**53), max_value=2**53),
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False, width=32),
    str: st.text(max_size=40),
}


def _strategy_for(annotation):
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:  # Optional[T]
        options = [st.none() if a is type(None) else _strategy_for(a)
                   for a in args]
        return st.one_of(*options)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=6).map(tuple)
        return st.tuples(*(_strategy_for(a) for a in args))
    raise AssertionError(f"no strategy for annotation {annotation!r}")


def _message_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: _strategy_for(hints[f.name])
        for f in dataclasses.fields(cls)
    })


# DataFrame's payload is `object`; give it a registered protocol message.
_SIMPLE = [cls for cls in registered_messages().values()
           if cls not in (DataFrame,)
           and all(typing.get_type_hints(cls).get(f.name) is not object
                   for f in dataclasses.fields(cls))]

any_simple_message = st.one_of(*(_message_strategy(cls) for cls in _SIMPLE))
any_dataframe = st.builds(
    DataFrame,
    seq=st.integers(min_value=0, max_value=2**31),
    incarnation=st.integers(min_value=0, max_value=64),
    payload=st.one_of(_message_strategy(TokenMsg), _message_strategy(GimmeMsg)),
)
any_message = st.one_of(any_simple_message, any_dataframe)
endpoints = st.integers(min_value=-1, max_value=10_000)


class TestRoundTrip:
    @given(src=endpoints, dst=endpoints, msg=any_message)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_identity(self, src, dst, msg):
        frame = encode_frame(src, dst, msg)
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        assert frame[4] == WIRE_VERSION
        out_src, out_dst, out_msg = decode_body(frame[4:])
        assert (out_src, out_dst) == (src, dst)
        assert out_msg == msg
        assert type(out_msg) is type(msg)

    @given(msg=any_message)
    @settings(max_examples=100, deadline=None)
    def test_reader_accepts_what_encoder_writes(self, msg):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(3, 7, msg))
            reader.feed_eof()
            return await read_frame(reader)

        src, dst, out = asyncio.run(main())
        assert (src, dst, out) == (3, 7, msg)

    def test_every_core_message_type_is_registered(self):
        from repro.core import messages

        registry = registered_messages()
        for name in messages.__all__:
            cls = getattr(messages, name)
            if dataclasses.is_dataclass(cls):
                assert registry.get(name) is cls
        assert registry["DataFrame"] is DataFrame
        assert registry["AckFrame"] is AckFrame
        assert registry["AcquireReply"] is AcquireReply
        assert registry["StatusReply"] is StatusReply


class TestRegistry:
    def test_register_is_idempotent(self):
        assert register_message(TokenMsg) is TokenMsg

    def test_register_rejects_tag_collision(self):
        @dataclasses.dataclass(frozen=True)
        class TokenMsg:  # same tag, different class
            x: int = 0

        with pytest.raises(CodecError, match="already registered"):
            register_message(TokenMsg)

    def test_register_rejects_non_dataclass(self):
        with pytest.raises(CodecError, match="not a dataclass"):
            register_message(object)

    def test_encode_rejects_unregistered_type(self):
        @dataclasses.dataclass(frozen=True)
        class Private:
            x: int = 1

        with pytest.raises(CodecError, match="unregistered"):
            encode_frame(0, 1, Private())


def _read_all(data: bytes):
    """Feed raw bytes to a fresh reader and read one frame."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_frame(reader), timeout=1.0)

    return asyncio.run(main())


def _frame_with_body(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


def _body(*parts: bytes) -> bytes:
    """A current-version frame (prefix included) around hand-assembled
    values."""
    return _frame_with_body(bytes((WIRE_VERSION,)) + b"".join(parts))


# Hand-assembled values of the body (see the codec module docstring).
ZERO, ONE = bytes((16,)), bytes((17,))       # small ints are the byte - 16
NONE, TRUE, INT64, FLOAT64, STR, TUPLE, MSG = (
    bytes((tag,)) for tag in (0xF0, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7))


def _type_id(cls) -> bytes:
    frame = encode_frame(0, 0, cls(*(0,) * len(dataclasses.fields(cls))))
    assert frame[7:8] == MSG
    return frame[8:9]


STATUS = MSG + _type_id(StatusRequest)   # StatusRequest(req_id: int)


class TestAdversarialFrames:
    def test_truncated_frame_raises_incomplete_not_hang(self):
        whole = encode_frame(0, 1, GimmeMsg(1, 2, 3, 4, ()))
        for cut in (1, 3, 5, len(whole) - 1):
            with pytest.raises(asyncio.IncompleteReadError):
                _read_all(whole[:cut])

    def test_zero_length_frame(self):
        with pytest.raises(FrameError, match="zero-length"):
            _read_all(struct.pack("!I", 0))

    def test_oversized_length_prefix_fails_before_reading_body(self):
        # The prefix alone exceeds the bound: must fail immediately, not
        # wait for 4 GiB that will never arrive.
        with pytest.raises(FrameError, match="exceeds max"):
            _read_all(struct.pack("!I", MAX_FRAME + 1))

    def test_unsupported_version(self):
        good = encode_frame(0, 1, GimmeMsg(1, 2, 3, 4, ()))
        bad = good[:4] + bytes((WIRE_VERSION + 1,)) + good[5:]
        with pytest.raises(FrameError, match="version"):
            _read_all(bad)

    def test_version_1_json_frame_is_refused_by_version(self):
        body = b'\x01{"s":0,"d":1,"m":{"t":"StatusRequest","f":{"req_id":0}}}'
        with pytest.raises(FrameError, match="unsupported wire version 1 "):
            _read_all(_frame_with_body(body))

    def test_truncated_value(self):
        # The body ends inside a value: after the endpoints, inside an
        # 8-byte int, inside a message's fields, inside a long length.
        for parts in ((ZERO,), (ZERO, ONE), (ZERO, ONE, STATUS),
                      (ZERO, ONE, STATUS + INT64 + b"\x00\x00\x00"),
                      (ZERO, ONE, STATUS + FLOAT64),
                      (ZERO, ONE, STATUS + TUPLE + b"\xff\x00"),
                      (ZERO, ONE, MSG)):
            with pytest.raises(CodecError, match="truncated"):
                _read_all(_body(*parts))

    def test_unknown_value_tag(self):
        for tag in range(0xF8, 0x100):
            with pytest.raises(CodecError, match="unknown value tag"):
                _read_all(_body(ZERO, ONE, STATUS + bytes((tag,))))

    def test_unknown_type_tag(self):
        unassigned = bytes((len(registered_messages()),))
        for type_id in (unassigned, b"\xff"):
            with pytest.raises(CodecError, match="unknown message type id"):
                _read_all(_body(ZERO, ONE, MSG + type_id + ZERO))

    def test_wrong_fields_for_known_tag(self):
        # Positional fields: one too few is a truncation, one too many is
        # trailing bytes, and a value of the wrong type is refused before
        # the class is constructed.
        with pytest.raises(CodecError, match="truncated"):
            _read_all(_body(ZERO, ONE, STATUS))
        with pytest.raises(CodecError, match="trailing"):
            _read_all(_body(ZERO, ONE, STATUS + ZERO + ZERO))
        for wrong in (NONE, TRUE, FLOAT64 + bytes(8), STR + b"\x01a",
                      TUPLE + b"\x00", STATUS + ZERO):
            with pytest.raises(CodecError, match="bad fields for 'StatusRequest'"):
                _read_all(_body(ZERO, ONE, STATUS + wrong))

    def test_bool_is_not_an_int_on_the_wire(self):
        frame = encode_frame(0, 1, AcquireReply(req_id=1, ok=True, node=1))
        _, _, reply = decode_body(frame[4:])
        assert reply.ok is True and type(reply.node) is int
        # ... and an int where the class says bool is refused.
        swapped = frame.replace(TRUE, ONE, 1)
        with pytest.raises(CodecError, match="bad fields for 'AcquireReply'"):
            decode_body(swapped[4:])

    def test_ints_cover_64_bits_and_no_more(self):
        for value in (-(2**63), -17, -16, 223, 224, 2**63 - 1):
            frame = encode_frame(0, 1, StatusRequest(value))
            assert decode_body(frame[4:])[2] == StatusRequest(value)
        with pytest.raises(CodecError, match="64 bits"):
            encode_frame(0, 1, StatusRequest(2**63))

    def test_trailing_bytes_after_the_message(self):
        good = encode_frame(0, 1, StatusRequest(0))
        with pytest.raises(CodecError, match="1 trailing bytes"):
            _read_all(_frame_with_body(good[4:] + ZERO))

    def test_non_int_endpoints(self):
        for bad in (STR + b"\x04zero", TRUE, NONE, FLOAT64 + bytes(8)):
            with pytest.raises(CodecError, match="endpoints"):
                _read_all(_body(bad, ONE, STATUS + ZERO))
            with pytest.raises(CodecError, match="endpoints"):
                _read_all(_body(ZERO, bad, STATUS + ZERO))

    def test_top_level_value_is_not_a_message(self):
        for value in (ZERO, NONE, TUPLE + b"\x01" + STATUS + ZERO,
                      STR + b"\x00"):
            with pytest.raises(CodecError, match="registered message"):
                _read_all(_body(ZERO, ONE, value))

    def test_length_running_past_the_body(self):
        with pytest.raises(CodecError, match="string of 5 bytes runs past"):
            _read_all(_body(ZERO, ONE, STATUS + STR + b"\x05abc"))
        with pytest.raises(CodecError, match="tuple of 9 items runs past"):
            _read_all(_body(ZERO, ONE, STATUS + TUPLE + b"\x09" + ZERO))
        # A 4 GiB length claim fails on the claim, not on an allocation.
        huge = b"\xff" + struct.pack("!I", 2**32 - 1)
        for tag in (STR, TUPLE):
            with pytest.raises(CodecError, match="runs past"):
                _read_all(_body(ZERO, ONE, STATUS + tag + huge))

    def test_invalid_utf8(self):
        with pytest.raises(CodecError, match="malformed"):
            _read_all(_body(ZERO, ONE, STATUS + STR + b"\x02\xff\xfe"))

    def test_nesting_bomb(self):
        # Thousands of one-item tuples (or DataFrames) inside each other:
        # the depth cap answers, not the interpreter's recursion limit.
        data_frame = MSG + _type_id(DataFrame) + ZERO + ZERO
        for layer in (TUPLE + b"\x01", data_frame):
            bomb = _body(ZERO, ONE, STATUS + layer * 5000 + ZERO)
            with pytest.raises(CodecError, match=f"deeper than {MAX_DEPTH}"):
                _read_all(bomb)

    def test_nesting_is_capped_on_encode_too(self):
        value = ()
        for _ in range(MAX_DEPTH + 1):
            value = (value,)
        with pytest.raises(CodecError, match="deeper than"):
            encode_frame(0, 1, StatusRequest(value))

    def test_unencodable_field_value(self):
        with pytest.raises(CodecError, match="unregistered"):
            encode_frame(0, 1, StatusRequest([1, 2]))

    def test_oversized_encode_refused(self):
        msg = GimmeMsg(1, 2, 3, 4, tuple(range(400_000)))
        with pytest.raises(FrameError, match="max"):
            encode_frame(0, 1, msg)


class TestFrameReader:
    """The incremental reader behind the node transport's inbound
    connections: how the bytes are cut is invisible in what it yields."""

    @given(frames=st.lists(st.tuples(endpoints, endpoints, any_message),
                           max_size=5),
           cuts=st.lists(st.integers(min_value=0), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_any_split_yields_the_same_frames(self, frames, cuts):
        stream = b"".join(encode_frame(*frame) for frame in frames)
        points = sorted({cut % (len(stream) + 1) for cut in cuts})
        bounds = [0, *points, len(stream)]
        reader = FrameReader()
        got = [frame for lo, hi in zip(bounds, bounds[1:])
               for frame in reader.feed(stream[lo:hi])]
        assert got == frames

    def test_byte_at_a_time(self):
        frames = [(0, 1, GimmeMsg(1, 2, 3, 4, ())),
                  (2, 0, TokenMsg(5, 1, ((1, 2),), None, 0, ()))]
        stream = b"".join(encode_frame(*frame) for frame in frames)
        reader = FrameReader()
        got = []
        for i in range(len(stream)):
            got.extend(reader.feed(stream[i:i + 1]))
        assert got == frames

    def test_frames_before_a_bad_one_come_out_first(self):
        good = encode_frame(0, 1, StatusRequest(3))
        reader = FrameReader(max_frame=64)
        got = []
        with pytest.raises(FrameError, match="exceeds max 64"):
            for frame in reader.feed(good + good + struct.pack("!I", 65)):
                got.append(frame)
        assert got == [(0, 1, StatusRequest(3))] * 2

    def test_a_bad_prefix_fails_before_its_body(self):
        for prefix, match in ((0, "zero-length"), (MAX_FRAME + 1, "exceeds")):
            with pytest.raises(FrameError, match=match):
                list(FrameReader().feed(struct.pack("!I", prefix)))

    def test_a_bad_body_is_a_codec_error(self):
        with pytest.raises(CodecError):
            list(FrameReader().feed(_body(ZERO, ONE, b"\xf8")))


class TestServerSideRejection:
    """A hostile client must not hang or crash a live WireTransport."""

    def test_garbage_connection_is_closed_with_typed_error(self):
        from repro.wire.transport import WireTransport

        async def main():
            transport = WireTransport(delay=0.0)
            transport.attach(0)
            await transport.start()
            try:
                port = transport.port_of(0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(_frame_with_body(
                    bytes((WIRE_VERSION,)) + b"not a frame at all"))
                await writer.drain()
                # The server must close on us promptly.
                await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                return transport
            finally:
                await transport.aclose()

        transport = asyncio.run(main())
        assert transport.counters.codec_errors == 1
        assert isinstance(transport.last_wire_error, CodecError)

    def test_oversized_frame_closes_connection(self):
        from repro.wire.transport import WireTransport

        async def main():
            transport = WireTransport(delay=0.0)
            transport.attach(0)
            await transport.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port_of(0))
                writer.write(struct.pack("!I", MAX_FRAME + 1))
                await writer.drain()
                await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                return transport
            finally:
                await transport.aclose()

        transport = asyncio.run(main())
        assert transport.counters.codec_errors == 1
        assert isinstance(transport.last_wire_error, FrameError)
