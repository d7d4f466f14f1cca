"""Versioned length-prefixed frame codec for the real-socket transport.

Every message that crosses a TCP connection — protocol traffic between
nodes, ARQ frames, lock-service requests and replies — is one *frame*:

    +----------------+-------------+-----+-----+-----------------------+
    | length (4B !I) | version = 3 | src | dst | message               |
    +----------------+-------------+-----+-----+-----------------------+

``length`` counts everything after the prefix (version byte included).
``src``, ``dst`` and ``message`` are *values* in a tagged positional
binary encoding — one leading byte says what follows:

    0x00..0xEF   small int: the byte minus 16 (-16..223), nothing follows
    0xF0         None
    0xF1 / 0xF2  False / True
    0xF3         int, 8 bytes ``!q``
    0xF4         float, 8 bytes ``!d``
    0xF5         str: length, then that many UTF-8 bytes
    0xF6         tuple: length, then that many values
    0xF7         message: one type-id byte, then the class's fields as
                 values in dataclass order (no names, no count)
    0xF8..0xFF   unassigned (a :class:`~repro.errors.CodecError`)

A *length* is one byte below 255, or ``0xFF`` followed by 4 bytes ``!I``.
Values nest (a token's ``served`` pairs, the ARQ
:class:`~repro.aio.reliability.DataFrame` carrying a token payload) to at
most :data:`MAX_DEPTH` levels.

A **type id** is the class's position in registration order.  Importing
this module registers the 21 built-ins first and always in the same
order — the 13 protocol messages in :mod:`repro.core.messages`
``__all__`` order (``TokenMsg`` .. ``HeartbeatMsg``; the field-less
``Message`` base is not among them), then ``DataFrame``, ``AckFrame``,
then the six lock-service messages of :mod:`repro.wire.service` in file
order — so their ids are the same in every process; classes an
application registers afterwards follow, and both peers must register
them in the same order.  Adding, removing or reordering a built-in (or a
field) is a wire protocol change: bump :data:`WIRE_VERSION`.

Deliberately not pickle: the decoder can only ever construct message
classes that were explicitly registered, and checks each field against
the class's type hints, so a hostile peer cannot instantiate arbitrary
objects or smuggle a string into an integer field.

Failure taxonomy (all close the connection — a length-prefixed stream
has no reliable resynchronization point):

- :class:`~repro.errors.FrameError` — framing violation: a length prefix
  beyond ``max_frame``, a zero-length body, or an unsupported version;
- :class:`~repro.errors.CodecError` — body violation: a truncated value,
  an unassigned tag or type id, a length running past the body, nesting
  beyond :data:`MAX_DEPTH`, malformed UTF-8, trailing bytes, or field
  values the message class rejects;
- ``asyncio.IncompleteReadError`` — the peer closed mid-frame (surfaced
  by :func:`read_frame`; treated as a connection reset, not a protocol
  error).

Two readers share the length-prefix checks: :func:`read_frame` awaits one
frame from a stream (the lock-service sessions), and :class:`FrameReader`
cuts frames out of whatever bytes a protocol callback was handed (the
node transport's inbound connections).
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
import typing
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import CodecError, FrameError

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME",
    "MAX_DEPTH",
    "register_message",
    "registered_messages",
    "encode_frame",
    "decode_body",
    "read_frame",
    "FrameReader",
]

WIRE_VERSION = 3

#: Default ceiling on the post-prefix frame size.  Protocol messages are
#: tens to hundreds of bytes; anything near this bound is an attack or a
#: desynchronized stream.
MAX_FRAME = 1 << 20

#: Deepest value nesting either side accepts.  Real frames reach 5 (a
#: ``DataFrame`` whose token carries a membership view); the cap is what
#: turns a nesting bomb into a typed error instead of a ``RecursionError``.
MAX_DEPTH = 16

_LEN = struct.Struct("!I")
_INT = struct.Struct("!q")
_FLOAT = struct.Struct("!d")

_SMALL_MIN = -16
_SMALL_END = 0xF0 + _SMALL_MIN      # small ints are _SMALL_MIN.._SMALL_END-1
_NONE, _FALSE, _TRUE, _INT64, _FLOAT64, _STR, _TUPLE, _MSG = range(0xF0, 0xF8)
_LONG_LEN = 0xFF

#: The exact Python types a decoded field may have, per annotation; an
#: ``int`` is accepted where a ``float`` is declared (``timeout=0``).
_FIELD_TYPES: Dict[Any, Tuple[type, ...]] = {
    int: (int,), bool: (bool,), float: (float, int), str: (str,),
    tuple: (tuple,), type(None): (type(None),),
}


class _Entry:
    """What the codec knows about one registered class."""

    __slots__ = ("cls", "type_id", "getter", "checks")

    def __init__(self, cls: Type, type_id: int) -> None:
        names = [f.name for f in dataclasses.fields(cls)]
        self.cls = cls
        self.type_id = type_id
        #: Reads every field, in order, in one call.
        self.getter: Callable[[Any], Tuple[Any, ...]] = (
            attrgetter(*names) if len(names) > 1
            else _single_field_getter(names))
        #: Per field, the types a decoded value may have (None: anything).
        self.checks: List[Optional[Tuple[type, ...]]] = _field_checks(cls, names)


def _single_field_getter(names: List[str]) -> Callable[[Any], Tuple[Any, ...]]:
    """``attrgetter`` with one name returns the bare value, not a tuple."""
    if not names:
        return lambda msg: ()
    get = attrgetter(names[0])
    return lambda msg: (get(msg),)


def _field_checks(cls: Type,
                  names: List[str]) -> List[Optional[Tuple[type, ...]]]:
    try:
        hints = typing.get_type_hints(cls)
    except (NameError, TypeError):  # unresolvable annotation: unchecked
        return [None] * len(names)
    return [_allowed_types(hints.get(name)) for name in names]


def _allowed_types(annotation: Any) -> Optional[Tuple[type, ...]]:
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        allowed: Tuple[type, ...] = ()
        for arm in typing.get_args(annotation):
            arm_types = _allowed_types(arm)
            if arm_types is None:
                return None
            allowed += arm_types
        return allowed
    return _FIELD_TYPES.get(origin if origin is not None else annotation)


_BY_NAME: Dict[str, _Entry] = {}
_BY_CLASS: Dict[Type, _Entry] = {}
_BY_ID: List[_Entry] = []


def register_message(cls: Type) -> Type:
    """Register a frozen dataclass for wire transport (idempotent).

    The class takes the next free type id, and its fields travel in
    dataclass order, so registration order, a renamed class and a changed
    field list are all wire protocol changes.  Returns ``cls`` so it can
    be used as a decorator."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass; cannot register")
    name = cls.__name__
    known = _BY_NAME.get(name)
    if known is not None:
        if known.cls is not cls:
            raise CodecError(
                f"message tag {name!r} already registered by {known.cls!r}")
        return cls
    if len(_BY_ID) > 0xFF:
        raise CodecError("type ids are one byte: 256 classes are registered")
    entry = _Entry(cls, len(_BY_ID))
    _BY_NAME[name] = _BY_CLASS[cls] = entry
    _BY_ID.append(entry)
    return cls


def registered_messages() -> Dict[str, Type]:
    """Tag -> class view of the registry (diagnostics, tests)."""
    return {name: entry.cls for name, entry in _BY_NAME.items()}


def _register_builtins() -> None:
    from repro.aio.reliability import AckFrame, DataFrame
    from repro.core import messages

    for name in messages.__all__:
        cls = getattr(messages, name)
        if dataclasses.is_dataclass(cls):
            register_message(cls)
    register_message(DataFrame)
    register_message(AckFrame)
    # The service messages register themselves on import; importing them
    # here pins their ids right behind the ones above in every process.
    import repro.wire.service  # noqa: F401


# -- values --------------------------------------------------------------------


def _encode_length(out: bytearray, tag: int, length: int) -> None:
    out.append(tag)
    if length < _LONG_LEN:
        out.append(length)
    else:
        out.append(_LONG_LEN)
        out += _LEN.pack(length)


def _encode_value(out: bytearray, value: Any, depth: int) -> None:
    kind = type(value)
    if kind is int:
        if _SMALL_MIN <= value < _SMALL_END:
            out.append(value - _SMALL_MIN)
            return
        out.append(_INT64)
        try:
            out += _INT.pack(value)
        except struct.error:
            raise CodecError(f"int {value} does not fit 64 bits") from None
    elif kind is tuple:
        if depth >= MAX_DEPTH:
            raise CodecError(f"value nests deeper than {MAX_DEPTH}")
        _encode_length(out, _TUPLE, len(value))
        for item in value:
            _encode_value(out, item, depth + 1)
    elif value is None:
        out.append(_NONE)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is float:
        out.append(_FLOAT64)
        out += _FLOAT.pack(value)
    elif kind is str:
        raw = value.encode("utf-8")
        _encode_length(out, _STR, len(raw))
        out += raw
    else:
        _encode_message(out, value, depth)


def _encode_message(out: bytearray, msg: object, depth: int) -> None:
    entry = _BY_CLASS.get(type(msg))
    if entry is None:
        raise CodecError(
            f"unregistered message type {type(msg).__name__!r}; "
            f"register_message() it before sending over the wire")
    if depth >= MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH}")
    out.append(_MSG)
    out.append(entry.type_id)
    for value in entry.getter(msg):
        _encode_value(out, value, depth + 1)


def _decode_length(buf: bytes, pos: int) -> Tuple[int, int]:
    length = buf[pos]
    if length < _LONG_LEN:
        return length, pos + 1
    return _LEN.unpack_from(buf, pos + 1)[0], pos + 5


def _decode_value(buf: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """One value starting at ``buf[pos]``; returns it and the position
    after it.  Running off the end raises ``IndexError``/``struct.error``,
    which :func:`decode_body` reports as a truncated value."""
    tag = buf[pos]
    pos += 1
    if tag < _NONE:
        return tag + _SMALL_MIN, pos
    if tag == _MSG:
        return _decode_message(buf, pos, depth)
    if tag == _INT64:
        return _INT.unpack_from(buf, pos)[0], pos + 8
    if tag == _NONE:
        return None, pos
    if tag == _TUPLE:
        if depth >= MAX_DEPTH:
            raise CodecError(f"value nests deeper than {MAX_DEPTH}")
        length, pos = _decode_length(buf, pos)
        if length > len(buf) - pos:     # every item is at least one byte
            raise CodecError(
                f"tuple of {length} items runs past the frame body")
        items = []
        for _ in range(length):
            item, pos = _decode_value(buf, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    if tag == _FLOAT64:
        return _FLOAT.unpack_from(buf, pos)[0], pos + 8
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _STR:
        length, pos = _decode_length(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError(
                f"string of {length} bytes runs past the frame body")
        try:
            return buf[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed string: {exc}") from None
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def _decode_message(buf: bytes, pos: int, depth: int) -> Tuple[object, int]:
    """The type id and fields following a message tag."""
    type_id = buf[pos]
    pos += 1
    if type_id >= len(_BY_ID):
        raise CodecError(f"unknown message type id {type_id}")
    if depth >= MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH}")
    entry = _BY_ID[type_id]
    values = []
    for allowed in entry.checks:
        value, pos = _decode_value(buf, pos, depth + 1)
        if allowed is not None and type(value) not in allowed:
            raise CodecError(
                f"bad fields for {entry.cls.__name__!r}: field "
                f"{len(values)} cannot be {type(value).__name__}")
        values.append(value)
    try:
        return entry.cls(*values), pos
    except (TypeError, ValueError) as exc:
        raise CodecError(
            f"bad fields for {entry.cls.__name__!r}: {exc}") from None


# -- frames --------------------------------------------------------------------


def encode_frame(src: int, dst: int, msg: object) -> bytes:
    """One complete frame: length prefix, version byte, binary body."""
    out = bytearray(5)
    out[4] = WIRE_VERSION
    _encode_value(out, src, 0)
    _encode_value(out, dst, 0)
    _encode_message(out, msg, 0)
    length = len(out) - _LEN.size
    if length > MAX_FRAME:
        raise FrameError(f"encoded frame is {length} bytes (max {MAX_FRAME})")
    _LEN.pack_into(out, 0, length)
    return bytes(out)


def decode_body(payload: bytes) -> Tuple[int, int, object]:
    """Decode one frame body (everything after the length prefix) into
    ``(src, dst, message)``."""
    if not payload:
        raise FrameError("zero-length frame body")
    version = payload[0]
    if version != WIRE_VERSION:
        raise FrameError(
            f"unsupported wire version {version} (speak {WIRE_VERSION})")
    try:
        src, pos = _decode_value(payload, 1, 0)
        dst, pos = _decode_value(payload, pos, 0)
        if type(src) is not int or type(dst) is not int:
            raise CodecError(
                f"frame endpoints must be ints, got {src!r}->{dst!r}")
        if payload[pos] != _MSG:
            raise CodecError(
                f"frame must carry a registered message, got value tag "
                f"0x{payload[pos]:02x}")
        msg, pos = _decode_message(payload, pos + 1, 0)
    except (IndexError, struct.error):
        raise CodecError("truncated value: the frame body ends inside it") \
            from None
    if pos != len(payload):
        raise CodecError(
            f"{len(payload) - pos} trailing bytes after the message")
    return src, dst, msg


def _body_length(prefix: bytes, max_frame: int, pos: int = 0) -> int:
    """The body length a frame's prefix at ``prefix[pos:]`` announces,
    refused before any of the body is waited for."""
    (length,) = _LEN.unpack_from(prefix, pos)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > max_frame:
        raise FrameError(f"frame of {length} bytes exceeds max {max_frame}")
    return length


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = MAX_FRAME,
    on_bytes: Optional[Callable[[int], None]] = None,
) -> Tuple[int, int, object]:
    """Read exactly one frame from a stream.

    Raises :class:`~repro.errors.FrameError` on an oversized or
    undersized length prefix, :class:`~repro.errors.CodecError` on a body
    that does not decode, and ``asyncio.IncompleteReadError`` when the
    peer closes mid-frame.  Never returns partial data and never blocks
    past the bytes one frame needs — a garbage prefix fails immediately
    instead of waiting for gigabytes that will never arrive."""
    length = _body_length(await reader.readexactly(_LEN.size), max_frame)
    payload = await reader.readexactly(length)
    if on_bytes is not None:
        on_bytes(_LEN.size + length)
    return decode_body(payload)


class FrameReader:
    """Cuts frames out of a byte stream handed over in arbitrary pieces.

    :meth:`feed` takes the next bytes of one connection and yields every
    frame they complete, in stream order, as ``(src, dst, message)``;
    the bytes of an unfinished frame wait for the next call.  A framing
    or body violation raises where the bad frame starts, after the
    frames before it have been yielded, with the same errors as
    :func:`read_frame`; the stream is unusable from there on."""

    __slots__ = ("max_frame", "_buf")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[Tuple[int, int, object]]:
        buf = self._buf
        buf += data
        size = len(buf)
        pos = 0
        try:
            while size - pos >= _LEN.size:
                start = pos + _LEN.size
                end = start + _body_length(buf, self.max_frame, pos)
                if end > size:
                    break
                pos = end
                yield decode_body(buf[start:end])
        finally:
            del buf[:pos]


_register_builtins()
