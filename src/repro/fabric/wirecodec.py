"""A pickle-free binary codec for the process transports' hot wire frames.

Task arguments, task results, and node-init states are overwhelmingly built
from a small vocabulary: ``None``/booleans/ints/floats, NumPy scalars and
arrays, strings, tuples/lists/dicts, and fabric :class:`~repro.fabric.payload.Payload`
objects (which already define a canonical wire form).  This codec frames
exactly that vocabulary as length-prefixed ``struct`` + raw-buffer records —
no pickle machinery on the round-trip hot path — and keeps pickle as the
explicit fallback tag for everything else (RNG generators, dataclasses,
problem-specific values), so arbitrary state still travels correctly.

Bit-identity is structural: floats and arrays are transcribed from their raw
buffers (`tobytes`/`frombuffer`), never reformatted, so a decoded value is
byte-for-byte the encoded one.  NumPy scalar *types* are preserved for the
dominant ``float64``/``int64`` cases (a task that returns ``np.float64``
must not observe a plain ``float`` after the wire).

``dumps`` prefixes a magic marker; ``loads`` falls back to ``pickle.loads``
for unmarked data, so journaled frames from either encoding replay through
one entry point.

Stream framing
--------------
Pipes (``multiprocessing.Connection``) preserve message boundaries, but raw
byte streams — TCP sockets above all — deliver *fragments*: one ``recv`` may
return half a frame, and a peer may die mid-frame.  :func:`read_exactly`,
:func:`frame`, and :func:`read_frame` give every stream consumer (the
cluster's socket protocol, file-backed journals) one explicit length-prefixed
framing discipline: a frame is a 4-byte big-endian length followed by exactly
that many payload bytes.  A stream that ends cleanly *between* frames raises
``EOFError``; one that ends *inside* a frame (or decodes past the end of its
buffer) raises :class:`TruncatedFrameError`, never a silently-short value.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable

import numpy as np

from .payload import Payload, decode_payload

__all__ = [
    "dumps",
    "loads",
    "MAGIC",
    "TruncatedFrameError",
    "read_exactly",
    "frame",
    "read_frame",
    "MAX_FRAME_BYTES",
]

#: Frame marker: anything not starting with this is treated as a pickle.
#: (``\x93`` is not a printable ASCII byte and differs from pickle's
#: ``PROTO`` opcode ``\x80``, so the dispatch is unambiguous.)
MAGIC = b"\x93RW1"

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"  # int fitting int64
_T_FLOAT = b"f"  # python float
_T_NPF64 = b"g"  # numpy.float64 scalar
_T_NPI64 = b"j"  # numpy.int64 scalar
_T_STR = b"s"
_T_BYTES = b"b"
_T_ARRAY = b"a"
_T_TUPLE = b"t"
_T_LIST = b"l"
_T_DICT = b"d"
_T_PAYLOAD = b"p"
_T_PICKLE = b"P"

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Hard ceiling on one stream frame (a corrupt length prefix must not make a
#: reader try to buffer gigabytes before failing).
MAX_FRAME_BYTES = 1 << 31


class TruncatedFrameError(ValueError):
    """A wire frame ended (or claimed more bytes) than the stream delivered."""

_pack_q = struct.Struct("<q").pack
_pack_d = struct.Struct("<d").pack
_pack_I = struct.Struct("<I").pack
_unpack_q = struct.Struct("<q").unpack_from
_unpack_d = struct.Struct("<d").unpack_from
_unpack_I = struct.Struct("<I").unpack_from


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += _T_NONE
        return
    kind = type(obj)
    if kind is bool:
        out += _T_TRUE if obj else _T_FALSE
        return
    if kind is np.float64:
        out += _T_NPF64
        out += _pack_d(float(obj))
        return
    if kind is float:
        out += _T_FLOAT
        out += _pack_d(obj)
        return
    if kind is np.int64:
        out += _T_NPI64
        out += _pack_q(int(obj))
        return
    if kind is int:
        if _I64_MIN <= obj <= _I64_MAX:
            out += _T_INT
            out += _pack_q(obj)
        else:
            _encode_pickle(obj, out)
        return
    if kind is str:
        raw = obj.encode("utf-8")
        out += _T_STR
        out += _pack_I(len(raw))
        out += raw
        return
    if kind is bytes:
        out += _T_BYTES
        out += _pack_I(len(obj))
        out += obj
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fiub" or obj.dtype.hasobject:
            _encode_pickle(obj, out)
            return
        dtype_str = obj.dtype.str.encode("ascii")
        out += _T_ARRAY
        out += bytes([len(dtype_str), obj.ndim])
        for dim in obj.shape:
            out += _pack_q(dim)
        out += dtype_str
        out += obj.tobytes()  # C-order raw buffer: exact bits, any layout
        return
    if kind is tuple:
        out += _T_TUPLE
        out += _pack_I(len(obj))
        for item in obj:
            _encode(item, out)
        return
    if kind is list:
        out += _T_LIST
        out += _pack_I(len(obj))
        for item in obj:
            _encode(item, out)
        return
    if kind is dict:
        out += _T_DICT
        out += _pack_I(len(obj))
        for key, value in obj.items():
            _encode(key, out)
            _encode(value, out)
        return
    if isinstance(obj, Payload):
        raw = obj.to_bytes()
        out += _T_PAYLOAD
        out += _pack_I(len(raw))
        out += raw
        return
    _encode_pickle(obj, out)


def _encode_pickle(obj: Any, out: bytearray) -> None:
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out += _T_PICKLE
    out += _pack_I(len(raw))
    out += raw


def _need(data: bytes, offset: int, count: int) -> None:
    """Fail loudly — not with a silently-short value — on truncated input."""
    if offset + count > len(data):
        raise TruncatedFrameError(
            f"truncated wire frame: needed {count} byte(s) at offset {offset}, "
            f"only {len(data) - offset} remain"
        )


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    _need(data, offset, 4)
    (length,) = _unpack_I(data, offset)
    return length, offset + 4


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    _need(data, offset, 1)
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        _need(data, offset, 8)
        return _unpack_q(data, offset)[0], offset + 8
    if tag == _T_FLOAT:
        _need(data, offset, 8)
        return _unpack_d(data, offset)[0], offset + 8
    if tag == _T_NPF64:
        _need(data, offset, 8)
        return np.float64(_unpack_d(data, offset)[0]), offset + 8
    if tag == _T_NPI64:
        _need(data, offset, 8)
        return np.int64(_unpack_q(data, offset)[0]), offset + 8
    if tag == _T_STR:
        length, offset = _read_length(data, offset)
        _need(data, offset, length)
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == _T_BYTES:
        length, offset = _read_length(data, offset)
        _need(data, offset, length)
        return bytes(data[offset : offset + length]), offset + length
    if tag == _T_ARRAY:
        _need(data, offset, 2)
        dtype_len = data[offset]
        ndim = data[offset + 1]
        offset += 2
        shape = []
        for _ in range(ndim):
            _need(data, offset, 8)
            shape.append(_unpack_q(data, offset)[0])
            offset += 8
        _need(data, offset, dtype_len)
        dtype = np.dtype(data[offset : offset + dtype_len].decode("ascii"))
        offset += dtype_len
        count = 1
        for dim in shape:
            count *= dim
        _need(data, offset, count * dtype.itemsize)
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        offset += count * dtype.itemsize
        # .copy() makes the result writable and owner of its buffer, exactly
        # like an unpickled array.
        return arr.reshape(shape).copy(), offset
    if tag == _T_TUPLE or tag == _T_LIST:
        length, offset = _read_length(data, offset)
        items = []
        for _ in range(length):
            item, offset = _decode(data, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_DICT:
        length, offset = _read_length(data, offset)
        mapping = {}
        for _ in range(length):
            key, offset = _decode(data, offset)
            value, offset = _decode(data, offset)
            mapping[key] = value
        return mapping, offset
    if tag == _T_PAYLOAD:
        length, offset = _read_length(data, offset)
        _need(data, offset, length)
        return decode_payload(memoryview(data)[offset : offset + length]), offset + length
    if tag == _T_PICKLE:
        length, offset = _read_length(data, offset)
        _need(data, offset, length)
        return pickle.loads(data[offset : offset + length]), offset + length
    raise ValueError(f"unknown wire tag {tag!r} at offset {offset - 1}")


def dumps(obj: Any) -> bytes:
    """Encode ``obj`` into a marked, pickle-free wire frame."""
    out = bytearray(MAGIC)
    _encode(obj, out)
    return bytes(out)


def loads(data: bytes) -> Any:
    """Decode a :func:`dumps` frame; plain pickles pass through unchanged.

    Truncated or short-delivered frames raise :class:`TruncatedFrameError`
    (never a silently-short string/array): socket streams deliver fragments,
    and a reader that handed a partial buffer to ``loads`` must hear about
    it explicitly.
    """
    if data[: len(MAGIC)] == MAGIC:
        obj, _end = _decode(data, len(MAGIC))
        return obj
    return pickle.loads(data)


# --------------------------------------------------------------------- #
# Stream framing: explicit partial-read handling for sockets and files
# --------------------------------------------------------------------- #

_FRAME_HEADER = struct.Struct("!I")  # big-endian frame length


def read_exactly(recv: Callable[[int], bytes], count: int) -> bytes:
    """Read exactly ``count`` bytes from a fragmenting stream.

    ``recv`` is any ``recv(n) -> bytes`` / ``read(n) -> bytes`` callable
    (``socket.recv``, ``BufferedReader.read``): it may return *fewer* bytes
    than asked, and returns ``b""`` at end-of-stream.  A stream that ends at
    byte 0 raises ``EOFError`` (clean close between frames); one that ends
    after delivering a fragment raises :class:`TruncatedFrameError`.
    """
    if count == 0:
        return b""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = recv(remaining)
        if not chunk:
            if remaining == count:
                raise EOFError("stream closed")
            raise TruncatedFrameError(
                f"stream ended mid-frame: expected {count} byte(s), "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def frame(payload: bytes) -> bytes:
    """Length-prefix one payload: 4-byte big-endian length + the bytes.

    The caller writes the returned buffer with an all-or-nothing primitive
    (``socket.sendall``, ``BufferedWriter.write``) — short *writes* are the
    sender's half of the framing contract.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def read_frame(recv: Callable[[int], bytes]) -> bytes:
    """Read one :func:`frame`-framed payload from a fragmenting stream.

    Raises ``EOFError`` on a clean close between frames,
    :class:`TruncatedFrameError` on a mid-frame close, and ``ValueError`` on
    a length prefix beyond :data:`MAX_FRAME_BYTES` (corrupt stream).
    """
    header = read_exactly(recv, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame header declares {length} bytes, beyond MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); stream is corrupt or desynchronised"
        )
    try:
        return read_exactly(recv, length)
    except EOFError as exc:
        # The header arrived but the payload did not even start: the peer
        # died between the two, which is still a truncated frame.
        raise TruncatedFrameError(
            f"stream ended after frame header: expected {length} payload "
            "byte(s), got 0"
        ) from exc
