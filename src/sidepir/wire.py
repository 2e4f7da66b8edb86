"""Framed wire protocol and on-disk store format.

Frames: magic "PIR1", one type byte, a little-endian u32 payload length,
then the payload. All integers on the wire are little-endian; symbols pack
per the field rules (two nibbles per byte at w = 4, low nibble first).

Store files: magic "PIRSTOR1", u8 width, u16 message count, u64 message
length, then each message's symbols packed independently so every message
starts on a byte boundary.

The byte layouts here are the canonical serialization everywhere: the
auditor hashes exactly these query payloads, and the in-process simulator
and the TCP path produce identical transcripts because both emit them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import BinaryIO, Mapping, NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolError
from .field import GF, standard_field
from .store import MessageStore

FRAME_MAGIC = b"PIR1"
TYPE_QUERY = 0x01
TYPE_ANSWER = 0x02
TYPE_ERROR = 0x03
TYPE_PARAMS = 0x04

SCHEME_LAYERED = 0x01
SCHEME_SYMMETRIC = 0x02
SCHEME_SUM = 0x03

FORM_RAW = 0x00
FORM_COMPRESSED = 0x01
FORM_SYMMETRIC = 0x02
FORM_SUM = 0x03
FORM_NAMES = {FORM_RAW: "raw", FORM_COMPRESSED: "compressed", FORM_SYMMETRIC: "symmetric",
              FORM_SUM: "sum"}

ERR_MALFORMED_FRAME = 0x01
ERR_MALFORMED_QUERY = 0x02
ERR_STORE_MISMATCH = 0x03
ERR_INTERNAL = 0x04
ERR_PROTOCOL = 0x05

MAX_PAYLOAD = 1 << 30

STORE_MAGIC = b"PIRSTOR1"
_STORE_HEADER = struct.Struct("<8sBHQ")


# ---------------------------------------------------------------------------
# frames

def frame_head(ftype: int, length: int) -> bytes:
    """The 9-byte head of a frame whose payload is ``length`` bytes."""
    if length > MAX_PAYLOAD:
        raise ProtocolError("payload exceeds the 1 GiB frame limit")
    return FRAME_MAGIC + bytes([ftype]) + struct.pack("<I", length)


def encode_frame(ftype: int, payload: bytes) -> bytes:
    return frame_head(ftype, len(payload)) + payload


def read_exact(stream: BinaryIO, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            raise ProtocolError(f"stream ended after {len(buf)} of {n} bytes")
        buf += chunk
    return buf


def read_frame(stream: BinaryIO, limit: int = MAX_PAYLOAD) -> tuple[int, bytes]:
    """Read one frame; an end of stream before it is a ProtocolError, and so
    is a head that declares more than ``limit`` bytes, before its body is read."""
    head = read_frame_head(stream)
    if head is None:
        raise ProtocolError("stream ended before a frame")
    if head[1] > limit:
        raise ProtocolError(f"frame of type {head[0]:#x} declares {head[1]} bytes, "
                            f"over the {limit} this step takes")
    return head[0], read_exact(stream, head[1])


def read_frame_head(stream: BinaryIO) -> tuple[int, int] | None:
    """Read a frame's 9-byte head as (type, declared payload length), leaving
    the payload unread; a clean end of stream before it returns None."""
    first = stream.read(1)
    if not first:
        return None
    head = first + read_exact(stream, 8)
    if head[:4] != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {head[:4]!r}")
    (length,) = struct.unpack("<I", head[5:9])
    if length > MAX_PAYLOAD:
        raise ProtocolError("declared payload exceeds the frame limit")
    return head[4], length


# ---------------------------------------------------------------------------
# params (JSON, canonical form)

def params_payload(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def parse_params_payload(data: bytes) -> dict:
    try:
        obj = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed params payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("params payload must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# error payloads

def error_payload(code: int, message: str) -> bytes:
    return bytes([code]) + message.encode()


def parse_error_payload(data: bytes) -> tuple[int, str]:
    if not data:
        raise ProtocolError("empty error payload")
    return data[0], data[1:].decode(errors="replace")


# ---------------------------------------------------------------------------
# layered-scheme query payloads

_LAYERED_HEAD = struct.Struct("<BBBHIII")
_COMPRESS_AT = 2  # the one header byte the public fields leave free


@dataclass(frozen=True)
class LayeredShape:
    """The public layout of a layered query: all of its payload but the
    compress byte and the coefficient rows. It is the same for every desired
    index and every database, so a server derives it from PARAMS alone.

    ``members`` (each row's 0-based message) and ``starts`` (the row where
    each slot's run of rows begins) index the rows for answering.
    """

    w: int
    num_messages: int
    message_length: int
    slot_members: tuple[tuple[int, ...], ...]
    p2: int
    members: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    starts: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = [len(m) for m in self.slot_members]
        members = np.array([i - 1 for m in self.slot_members for i in m], dtype=np.intp)
        starts = np.zeros(len(counts), dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        members.flags.writeable = starts.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "starts", starts)


@dataclass(frozen=True)
class DatabaseQuery:
    """One database's layered query: its plan's public ``shape`` and the
    coefficient rows, one per (slot, member message) in the shape's order.

    A database never sees mixers or stream labels, only the rows, each
    resolved against its member message's symbols.
    """

    shape: LayeredShape
    compress: bool
    rows: np.ndarray  # (..., sum of member counts, message_length)


@lru_cache(maxsize=16)
def _layered_template(shape: LayeredShape):
    """The one layout of a layered payload, to write and to read: the payload
    with compress byte 0 and rows zero, a mask of its row bytes, and the
    offsets of the other bytes but the compress byte."""
    row_bytes = standard_field(shape.w).packed_size(shape.message_length)
    template = bytearray(_LAYERED_HEAD.pack(SCHEME_LAYERED, shape.w, 0, shape.num_messages,
                                            shape.message_length, len(shape.slot_members),
                                            shape.p2))
    starts = []
    for members in shape.slot_members:
        template.append(len(members))
        for msg in members:
            template += struct.pack("<H", msg)
            starts.append(len(template))
            template += bytes(row_bytes)
    rows = np.zeros(len(template), dtype=bool)
    rows[(np.array(starts, dtype=np.intp)[:, None] + np.arange(row_bytes)).ravel()] = True
    # the compress byte is in the header, before any row
    fixed = np.delete(np.flatnonzero(~rows), _COMPRESS_AT)
    rows.flags.writeable = fixed.flags.writeable = False
    return np.frombuffer(bytes(template), dtype=np.uint8), rows, fixed


def serialize_database_query(q: DatabaseQuery):
    """The QUERY payload of a layered query, as bytes: its shape's template
    with the compress byte set and the rows packed in.

    Rows shaped (..., rows, L), one block per session, give the payloads of
    all those sessions at once: a uint8 array shaped (..., payload size).
    """
    field, length = standard_field(q.shape.w), q.shape.message_length
    template, mask, _ = _layered_template(q.shape)
    lead = q.rows.shape[:-2]
    rows = np.ascontiguousarray(q.rows, dtype=field.dtype).reshape(-1, length)
    if field.w == 4 and length % 2:
        # a padding nibble keeps every row byte-aligned
        rows = np.concatenate([rows, np.zeros((len(rows), 1), dtype=field.dtype)], axis=1)
    sessions, size = math.prod(lead), template.size
    # flat masks: a 2-d fancy index would cost several times more
    out = np.tile(template, sessions)
    out[np.tile(mask, sessions)] = np.frombuffer(field.pack(rows), dtype=np.uint8)
    out[_COMPRESS_AT::size] = 1 if q.compress else 0
    return out.reshape(lead + (size,)) if lead else out.tobytes()


def parse_query_payload(data: bytes, layouts: Mapping):
    """Decode a QUERY payload into its scheme's query object. ``layouts``
    maps each scheme byte its session takes to that scheme's shape, or to a
    string saying why the session takes none. The payload must match its
    shape in every byte but its own: the rows and compress byte (0 or 1) of
    a layered query, the session id and coordinates of a symmetric one; a
    sum query has none, and parses to its shape."""
    if not data:
        raise ProtocolError("empty query payload")
    shape = layouts.get(data[0], f"this session takes no query of scheme {data[0]:#x}")
    if isinstance(shape, str):
        raise ProtocolError(shape)
    if isinstance(shape, LayeredShape):
        return _parse_layered(data, shape)
    if isinstance(shape, SymmetricShape):
        return _parse_symmetric(data, shape)
    if data != serialize_sum_query(*shape):
        raise ProtocolError("sum query does not match its session's")
    return shape


def query_size(shape) -> int:
    """The length of every QUERY payload of a session's ``shape``."""
    if isinstance(shape, LayeredShape):
        return _layered_template(shape)[0].size
    if isinstance(shape, SymmetricShape):
        return _symmetric_layout(shape)[1]
    return _SUM_HEAD.size


def _parse_layered(data: bytes, shape: LayeredShape) -> DatabaseQuery:
    template, rows, fixed = _layered_template(shape)
    if len(data) != template.size:
        raise ProtocolError(f"layered query holds {len(data)} bytes, "
                            f"its session's scheme {template.size}")
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf[_COMPRESS_AT] > 1 or buf[fixed].tobytes() != template[fixed].tobytes():
        raise ProtocolError("layered query header or slot table does not match its session's")
    # every row in one unpack; at w = 4 a row of odd length carries a
    # padding nibble, which must be zero and is cut off after unpacking
    field, length = standard_field(shape.w), shape.message_length
    packed = buf[rows].tobytes()
    count = len(packed) // field.packed_size(length)
    width = 2 * field.packed_size(length) if field.w == 4 else length
    block = field.unpack(packed, count * width).reshape(count, width)
    if width != length:
        if block[:, length].any():
            raise ProtocolError("layered query has a nonzero padding nibble")
        block = np.ascontiguousarray(block[:, :length])
    block.flags.writeable = False
    return DatabaseQuery(shape=shape, compress=bool(buf[_COMPRESS_AT]), rows=block)


# ---------------------------------------------------------------------------
# symmetric-scheme query payloads

_SYM_HEAD = struct.Struct("<BBHHH16s")
SESSION_ID_AT = 8  # the session id follows the fields its shape fixes


class SymmetricShape(NamedTuple):
    """What fixes a symmetric payload: all but its session id and coordinates."""

    w: int
    num_messages: int
    message_length: int
    t: int


@lru_cache(maxsize=16)
def _symmetric_layout(shape: SymmetricShape) -> tuple[bytes, int]:
    """The header bytes before the session id, and the payload size."""
    count = shape.num_messages * shape.message_length
    return (_SYM_HEAD.pack(SCHEME_SYMMETRIC, *shape, bytes(16))[:SESSION_ID_AT],
            _SYM_HEAD.size + standard_field(shape.w).packed_size(count))


class SymQueryWire(NamedTuple):
    t: int
    session_id: bytes
    coords: np.ndarray  # (K, N - T)


def serialize_sym_query(w: int, session_id: bytes, t: int,
                        coords: np.ndarray) -> bytes:
    field = standard_field(w)
    k, ell = coords.shape
    head = _SYM_HEAD.pack(SCHEME_SYMMETRIC, w, k, ell, t, session_id)
    return head + field.pack(coords.reshape(-1))


def _parse_symmetric(data: bytes, shape: SymmetricShape) -> SymQueryWire:
    head, size = _symmetric_layout(shape)
    if len(data) != size or data[:SESSION_ID_AT] != head:
        raise ProtocolError("symmetric query header or length does not match its session's")
    field, k, ell = standard_field(shape.w), shape.num_messages, shape.message_length
    if field.w == 4 and k * ell % 2 and data[-1] >> 4:
        raise ProtocolError("symmetric query has a nonzero padding nibble")
    coords = field.unpack(data[_SYM_HEAD.size:], k * ell).reshape(k, ell)
    coords.flags.writeable = False
    return SymQueryWire(t=shape.t, session_id=data[SESSION_ID_AT:_SYM_HEAD.size], coords=coords)


# ---------------------------------------------------------------------------
# sum-download query (the all-but-one-cached shortcut)

_SUM_HEAD = struct.Struct("<BBHQ")


class SumShape(NamedTuple):
    """A sum payload is fixed whole by the store it asks."""

    w: int
    num_messages: int
    message_length: int


def serialize_sum_query(w: int, num_messages: int, message_length: int) -> bytes:
    return _SUM_HEAD.pack(SCHEME_SUM, w, num_messages, message_length)


# ---------------------------------------------------------------------------
# answers

_ANSWER_HEAD = struct.Struct("<BI")


def answer_size(field: GF, count: int) -> int:
    """The payload length of an ANSWER of ``count`` symbols."""
    return _ANSWER_HEAD.size + field.packed_size(count)


def serialize_answer(field: GF, form: int, symbols: np.ndarray) -> bytes:
    return _ANSWER_HEAD.pack(form, len(symbols)) + field.pack(symbols)


def parse_answer(field: GF, data: bytes) -> tuple[int, np.ndarray]:
    try:
        form, count = _ANSWER_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise ProtocolError(f"truncated answer header: {exc}") from exc
    body = data[_ANSWER_HEAD.size:]
    if len(body) != field.packed_size(count):
        raise ProtocolError(
            f"answer body holds {len(body)} bytes, expected {field.packed_size(count)}"
        )
    return form, field.unpack(body, count)


# ---------------------------------------------------------------------------
# store files

def _padded_length(field: GF, length: int) -> int:
    """Symbols a stored message occupies: w = 4 pads an odd message with one
    zero nibble, so every message starts on a whole byte."""
    return length + length % 2 if field.w == 4 else length


def store_bytes(store: MessageStore) -> bytes:
    """The header and every message, packed as one array."""
    k, length = store.messages.shape
    head = _STORE_HEADER.pack(STORE_MAGIC, store.field.w, k, length)
    pad = _padded_length(store.field, length) - length
    return head + store.field.pack(np.pad(store.messages, ((0, 0), (0, pad))))


def parse_store(data: bytes) -> MessageStore:
    if len(data) < _STORE_HEADER.size:
        raise ParameterError("store file shorter than its header")
    magic, w, k, length = _STORE_HEADER.unpack_from(data, 0)
    if magic != STORE_MAGIC:
        raise ParameterError(f"bad store magic {magic!r}")
    if w not in (4, 8, 16):
        raise ParameterError(f"store has unsupported symbol width {w}")
    field = standard_field(w)
    expected = _STORE_HEADER.size + k * field.packed_size(length)
    if len(data) != expected:
        raise ParameterError(
            f"store file holds {len(data)} bytes, expected {expected}"
        )
    padded = _padded_length(field, length)
    symbols = field.unpack(data[_STORE_HEADER.size:], k * padded).reshape(k, padded)
    if symbols[:, length:].any():
        raise ParameterError("store file has a nonzero padding nibble")
    messages = np.ascontiguousarray(symbols[:, :length])
    messages.flags.writeable = False
    return MessageStore(field=field, messages=messages)


def write_store(path, store: MessageStore) -> None:
    with open(path, "wb") as fh:
        fh.write(store_bytes(store))


def read_store(path) -> MessageStore:
    with open(path, "rb") as fh:
        return parse_store(fh.read())


# ---------------------------------------------------------------------------
# collusion views

def collusion_view_bytes(subset, query_payloads: Mapping[int, bytes]) -> bytes:
    """Canonical serialization of the queries a database subset observes; one
    that is sent no QUERY (the sum download asks one) observes an empty one."""
    parts = [b"VIEW1", struct.pack("<H", len(tuple(subset)))]
    for n in sorted(subset):
        payload = query_payloads.get(n, b"")
        parts.append(struct.pack("<HI", n, len(payload)))
        parts.append(payload)
    return b"".join(parts)
