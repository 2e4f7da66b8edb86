"""Wire formats: frames, store files, query/answer payloads."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sidepir import wire
from sidepir.capacity import SchemeParams, desk_grid
from sidepir.errors import ParameterError, ProtocolError
from sidepir.field import standard_field
from sidepir.store import random_store
from sidepir.field import GF
from sidepir.server import ServerCore
from sidepir.tpir_psi import DatabaseQuery, LayeredShape, build_plan, database_queries


@given(st.sampled_from([wire.TYPE_QUERY, wire.TYPE_ANSWER, wire.TYPE_ERROR,
                        wire.TYPE_PARAMS]),
       st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_frame_round_trip(ftype, payload):
    data = wire.encode_frame(ftype, payload)
    got_type, got_payload = wire.read_frame(io.BytesIO(data))
    assert (got_type, got_payload) == (ftype, payload)


def test_frame_rejects_bad_magic_and_truncation():
    with pytest.raises(ProtocolError):
        wire.read_frame(io.BytesIO(b"nope" + bytes(5)))
    frame = wire.encode_frame(wire.TYPE_QUERY, b"abcdef")
    with pytest.raises(ProtocolError):
        wire.read_frame(io.BytesIO(frame[:-2]))
    assert wire.read_frame_head(io.BytesIO(b"")) is None
    over = (wire.FRAME_MAGIC + bytes([wire.TYPE_QUERY])
            + (wire.MAX_PAYLOAD + 1).to_bytes(4, "little"))
    with pytest.raises(ProtocolError, match="exceeds the frame limit"):
        wire.read_frame_head(io.BytesIO(over))


def test_store_file_layout_and_round_trip(tmp_path):
    f4 = standard_field(4)
    store = random_store(f4, 3, 8, np.random.default_rng(0))
    data = wire.store_bytes(store)
    # magic(8) + width(1) + count(2) + length(8), then 3 messages of 4 bytes
    assert len(data) == 19 + 3 * 4
    assert data[:8] == b"PIRSTOR1"
    path = tmp_path / "s.pir"
    wire.write_store(path, store)
    loaded = wire.read_store(path)
    assert loaded.field == store.field
    assert np.array_equal(loaded.messages, store.messages)


@pytest.mark.parametrize("w,length", [(4, 7), (4, 8), (8, 7), (16, 7), (4, 1)])
def test_store_bytes_match_per_message_packing(w, length):
    """The whole store packs as one array into the bytes of packing each
    message on its own (at w = 4 an odd message ends in a zero nibble), and
    parses back to the same messages."""
    field = standard_field(w)
    store = random_store(field, 5, length, np.random.default_rng(length))
    data = wire.store_bytes(store)
    body = b"".join(field.pack(row) for row in store.messages)
    assert data[19:] == body
    loaded = wire.parse_store(data)
    assert loaded.messages.flags.c_contiguous and not loaded.messages.flags.writeable
    assert np.array_equal(loaded.messages, store.messages)
    per_message = field.packed_size(length)
    for k in range(5):
        row = data[19 + k * per_message:19 + (k + 1) * per_message]
        assert np.array_equal(field.unpack(row, length), store.messages[k])


def test_store_file_rejects_bad_sizes():
    f8 = standard_field(8)
    store = random_store(f8, 2, 5, np.random.default_rng(1))
    data = wire.store_bytes(store)
    with pytest.raises(ParameterError):
        wire.parse_store(data[:-1])
    with pytest.raises(ParameterError):
        wire.parse_store(b"BADMAGIC" + data[8:])
    with pytest.raises(ParameterError, match="shorter than its header"):
        wire.parse_store(data[:wire._STORE_HEADER.size - 1])
    with pytest.raises(ParameterError, match="unsupported symbol width 12"):
        wire.parse_store(data[:8] + bytes([12]) + data[9:])
    # at w = 4 a 5-symbol message ends in a padding nibble, which must be
    # zero: otherwise the file is not the store_bytes of what it parses to
    f4 = standard_field(4)
    data = wire.store_bytes(random_store(f4, 2, 5, np.random.default_rng(1)))
    assert wire.store_bytes(wire.parse_store(data)) == data
    for last in (wire._STORE_HEADER.size + 2, len(data) - 1):
        padded = bytearray(data)
        padded[last] |= 0x10
        with pytest.raises(ParameterError, match="nonzero padding nibble"):
            wire.parse_store(bytes(padded))


def _shape(plan):
    """The shape a tpir server's session takes after the PARAMS a client of
    ``plan`` sends: derived from PARAMS alone, not from any query."""
    params = plan.params
    core = ServerCore(random_store(plan.field, params.K, plan.profile.L,
                                   np.random.default_rng(0)))
    session = core.new_session()
    ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": params.N, "k": params.K, "m": params.M,
         "t": params.T, "w": plan.field.w, "message_length": plan.profile.L}))
    assert ftype == wire.TYPE_PARAMS
    return session["shape"]


@pytest.mark.parametrize("params,theta", [
    (SchemeParams(3, 1, 2, 1), 1),
    (SchemeParams(3, 1, 2, 1), 3),
    (SchemeParams(3, 2, 3, 2), 2),
    (SchemeParams(2, 0, 2, 1), 1),
] + [pytest.param(params, theta, id=f"desk-{params.K}{params.M}{params.N}{params.T}-{theta}")
     for params in desk_grid() if params.constructible for theta in range(1, params.K + 1)])
def test_layered_query_round_trip(params, theta):
    """The shape a server's session derives from PARAMS is the shape of the
    client's queries, for every theta: each query parses against it and
    writes back the same bytes."""
    plan, state = build_plan(params, theta, 7)
    shape = _shape(plan)
    assert shape == plan.shape
    for q in database_queries(plan, state.pool):
        assert q.shape == plan.shape
        data = wire.serialize_database_query(q)
        back = wire.parse_query_payload(data, shape)
        assert np.array_equal(back.rows, q.rows)
        assert (back.shape, back.compress) == (q.shape, q.compress)
        assert wire.serialize_database_query(back) == data


@pytest.mark.parametrize("w,length", [(4, 7), (4, 8), (8, 5), (16, 3)])
def test_layered_query_round_trip_odd_lengths(w, length):
    field = standard_field(w)
    shape = LayeredShape(w, 3, length, ((1,), (), (2, 3), (1, 3)), 1)
    rows = field.random_symbols(np.random.default_rng(length), (5, length))
    q = DatabaseQuery(shape=shape, compress=True, rows=rows)
    data = wire.serialize_database_query(q)
    back = wire.parse_query_payload(data, shape)
    assert back.shape == shape
    assert np.array_equal(back.rows, rows) and back.rows.flags.c_contiguous
    assert wire.serialize_database_query(back) == data


def _edit_header(index, value):
    def edit(data):
        fields = list(wire._LAYERED_HEAD.unpack_from(data, 0))
        fields[index] = value(fields[index])
        return wire._LAYERED_HEAD.pack(*fields) + data[wire._LAYERED_HEAD.size:]
    return edit


_FIRST_SLOT = wire._LAYERED_HEAD.size  # the first slot's member count


@pytest.mark.parametrize("edit", [
    _edit_header(1, lambda w: 8),
    _edit_header(2, lambda c: 2),
    _edit_header(3, lambda k: k + 1),
    _edit_header(4, lambda length: length + 1),
    _edit_header(5, lambda p1: p1 + 1000),
    _edit_header(6, lambda p2: p2 + 1),
    lambda d: d[:_FIRST_SLOT] + b"\xff" + d[_FIRST_SLOT + 1:],
    lambda d: d[:_FIRST_SLOT + 1] + b"\x02" + d[_FIRST_SLOT + 2:],
    lambda d: d[:-1],
    lambda d: d + b"\x00",
], ids=["w", "compress", "k", "length", "p1", "p2", "member-count", "member-id",
        "short", "long"])
def test_layered_query_off_template_rejected_before_unpack(monkeypatch, edit):
    """A layered payload is read against its session's template: one changed
    header field, member count or member id, or one byte more or less, is
    refused before any row is unpacked."""
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 8)
    query = database_queries(plan, state.pool)[0]
    data, shape = wire.serialize_database_query(query), _shape(plan)
    unpacked = []
    original = GF.unpack

    def counting(self, blob, count):
        unpacked.append(count)
        return original(self, blob, count)

    monkeypatch.setattr(GF, "unpack", counting)
    bad = edit(data)
    assert bad != data
    with pytest.raises(ProtocolError):
        wire.parse_query_payload(bad, shape)
    assert unpacked == []
    wire.parse_query_payload(data, shape)
    assert len(unpacked) == 1


def test_layered_query_needs_a_session_shape():
    """A session of another scheme's shape refuses a layered payload."""
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 8)
    data = wire.serialize_database_query(database_queries(plan, state.pool)[0])
    for shape in (wire.SumShape(4, 3, 8), wire.SymmetricShape(4, 3, 8, 1)):
        with pytest.raises(ProtocolError, match="does not match its session's"):
            wire.parse_query_payload(data, shape)


def test_layered_query_truncation_detected():
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 8)
    query = database_queries(plan, state.pool)[0]
    data, shape = wire.serialize_database_query(query), _shape(plan)
    with pytest.raises(ProtocolError):
        wire.parse_query_payload(data[:-3], shape)
    with pytest.raises(ProtocolError):
        wire.parse_query_payload(data + b"\x00", shape)


def test_sym_query_round_trip():
    f8 = standard_field(8)
    coords = f8.random_symbols(np.random.default_rng(2), (3, 2))
    sid = bytes(range(16))
    data = wire.serialize_sym_query(8, sid, 2, coords)
    back = wire.parse_query_payload(data, wire.SymmetricShape(8, 3, 2, 2))
    assert isinstance(back, wire.SymQueryWire)
    assert back.session_id == sid and back.t == 2
    assert np.array_equal(back.coords, coords)


def test_sum_query_round_trip():
    data = wire.serialize_sum_query(4, 3, 8)
    shape = wire.SumShape(4, 3, 8)
    assert wire.parse_query_payload(data, shape) == shape
    assert wire.query_size(shape) == len(data)


def _edit_fields(head, index, value):
    def edit(data):
        fields = list(head.unpack_from(data, 0))
        fields[index] = value(fields[index])
        return head.pack(*fields) + data[head.size:]
    return edit


_SYM_COORDS = standard_field(8).random_symbols(np.random.default_rng(3), (3, 2))
_SYMMETRIC = (wire.serialize_sym_query(8, bytes(range(16)), 1, _SYM_COORDS),
              wire.SymmetricShape(8, 3, 2, 1))
_SUM = (wire.serialize_sum_query(4, 3, 8), wire.SumShape(4, 3, 8))


@pytest.mark.parametrize("case,edit", [
    (_SYMMETRIC, _edit_fields(wire._SYM_HEAD, 1, lambda w: 4)),
    (_SYMMETRIC, _edit_fields(wire._SYM_HEAD, 2, lambda k: k + 1)),
    (_SYMMETRIC, _edit_fields(wire._SYM_HEAD, 3, lambda ell: ell - 1)),
    (_SYMMETRIC, _edit_fields(wire._SYM_HEAD, 4, lambda t: t + 1)),
    (_SYMMETRIC, _edit_fields(wire._SYM_HEAD, 4, lambda t: 0)),
    (_SYMMETRIC, lambda d: d[:-1]),
    (_SYMMETRIC, lambda d: d + b"\x00"),
    (_SUM, _edit_fields(wire._SUM_HEAD, 1, lambda w: 8)),
    (_SUM, _edit_fields(wire._SUM_HEAD, 2, lambda k: k + 1)),
    (_SUM, _edit_fields(wire._SUM_HEAD, 3, lambda length: length - 1)),
    (_SUM, lambda d: d[:-1]),
    (_SUM, lambda d: d + b"\x00"),
], ids=["sym-w", "sym-k", "sym-length", "sym-t", "sym-t0", "sym-short", "sym-long",
        "sum-w", "sum-k", "sum-length", "sum-short", "sum-long"])
def test_symmetric_and_sum_queries_off_shape_rejected_before_unpack(monkeypatch, case,
                                                                     edit):
    """Symmetric and sum payloads are read against their session's shape as
    layered ones are: one changed header field (w, K, N - T or T), or one
    byte more or less, is refused before any coordinate is unpacked."""
    data, shape = case
    unpacked = []
    original = GF.unpack

    def counting(self, blob, count):
        unpacked.append(count)
        return original(self, blob, count)

    monkeypatch.setattr(GF, "unpack", counting)
    bad = edit(data)
    assert bad != data
    with pytest.raises(ProtocolError):
        wire.parse_query_payload(bad, shape)
    assert unpacked == []
    wire.parse_query_payload(data, shape)
    assert len(unpacked) == (data[0] == wire.SCHEME_SYMMETRIC)


def test_unknown_scheme_rejected():
    """The bytes each shape fixes start with its scheme byte: another scheme
    byte, or an empty payload, is refused by every shape."""
    plan = build_plan(SchemeParams(3, 1, 2, 1), 1, 8)[0]
    for shape in (_SUM[1], _SYMMETRIC[1], plan.shape):
        for data in (b"\x99rest", b""):
            with pytest.raises(ProtocolError):
                wire.parse_query_payload(data, shape)


@pytest.mark.parametrize("w", (4, 8, 16))
def test_answer_round_trip(w):
    f = standard_field(w)
    symbols = f.random_symbols(np.random.default_rng(w), 13)
    data = wire.serialize_answer(f, wire.FORM_COMPRESSED, symbols)
    form, got = wire.parse_answer(f, data)
    assert form == wire.FORM_COMPRESSED
    assert np.array_equal(got, symbols)
    with pytest.raises(ProtocolError, match="^truncated answer header"):
        wire.parse_answer(f, data[:4])
    for bad in (data[:-1], data + b"\0"):
        with pytest.raises(ProtocolError, match=f"^answer body holds {len(bad) - 5} bytes, "
                                                f"expected {f.packed_size(13)}$"):
            wire.parse_answer(f, bad)


def test_answer_refuses_a_nonzero_padding_nibble():
    """At w = 4 an odd symbol count leaves the last byte's high nibble
    unused; an answer that sets it is refused, not parsed as the honest one."""
    f4 = standard_field(4)
    form, got = wire.parse_answer(f4, bytes([0, 1, 0, 0, 0, 0x01]))
    assert (form, got.tolist()) == (0, [1])
    with pytest.raises(ProtocolError, match="^answer has a nonzero padding nibble$"):
        wire.parse_answer(f4, bytes([0, 1, 0, 0, 0, 0xF1]))


def test_error_payload_round_trip():
    data = wire.error_payload(wire.ERR_MALFORMED_QUERY, "bad index")
    code, msg = wire.parse_error_payload(data)
    assert code == wire.ERR_MALFORMED_QUERY and msg == "bad index"


def test_params_payload_canonical():
    a = wire.params_payload({"b": 1, "a": 2})
    b = wire.params_payload({"a": 2, "b": 1})
    assert a == b == b'{"a":2,"b":1}'
    with pytest.raises(ProtocolError):
        wire.parse_params_payload(b"[1,2]")


def test_collusion_view_bytes_sorted():
    payloads = {2: b"two", 1: b"one"}
    v = wire.collusion_view_bytes((2, 1), payloads)
    assert v.index(b"one") < v.index(b"two")
