"""Server/client over TCP and in process, plus the command-line interface."""

import hashlib
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from sidepir import client, wire
from sidepir.capacity import SchemeParams, desk_grid
from sidepir.cli import main as cli_main
from sidepir.errors import (
    CorruptionError,
    ParameterError,
    PirError,
    ProtocolError,
    ZeroCapacityError,
)
from sidepir.field import standard_field
from sidepir.server import MAX_SESSIONLESS_FRAME, DatabaseServer, ServerCore
from sidepir.store import random_store

SECRET = bytes(range(32))


@pytest.fixture(scope="module")
def golden1_store():
    return random_store(standard_field(4), 3, 8, np.random.default_rng(100))


def tcp_transports(servers):
    return [client.TcpTransport("127.0.0.1", s.port) for s in servers]


def test_tcp_retrieval_golden_1(golden1_store):
    params = SchemeParams(3, 1, 2, 1)
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        transports = tcp_transports(servers)
        result = client.retrieve(transports, params, theta=1,
                                 side=golden1_store.side_information({3}), seed=5)
        for t in transports:
            t.close()
    finally:
        for s in servers:
            s.stop()
    assert np.array_equal(result.message, golden1_store.message(1))
    assert result.downloaded_symbols == 12
    assert [len(wire.parse_answer(standard_field(4), t.answer_received)[1])
            for t in result.transcripts] == [6, 6]
    assert result.rate == result.capacity


def test_transcripts_identical_tcp_vs_local(golden1_store):
    params = SchemeParams(3, 1, 2, 1)
    side = golden1_store.side_information({3})
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        transports = tcp_transports(servers)
        over_tcp = client.retrieve(transports, params, theta=2, side=side, seed=77)
        for t in transports:
            t.close()
    finally:
        for s in servers:
            s.stop()
    sims = client.local_simulator(golden1_store, 2)
    local = client.retrieve(sims, params, theta=2, side=side, seed=77)
    assert over_tcp.transcripts == local.transcripts
    assert np.array_equal(over_tcp.message, local.message)


def test_replica_mismatch_aborts(golden1_store):
    params = SchemeParams(3, 1, 2, 1)
    other = random_store(standard_field(4), 3, 8, np.random.default_rng(101))
    sims = [client.LocalTransport(ServerCore(golden1_store)),
            client.LocalTransport(ServerCore(other))]
    with pytest.raises(CorruptionError):
        client.retrieve(sims, params, theta=1,
                        side=golden1_store.side_information({3}), seed=1)


def test_wrong_side_file_detected_in_raw_mode(golden1_store):
    params = SchemeParams(3, 1, 2, 1)
    sims = client.local_simulator(golden1_store, 2)
    wrong = golden1_store.message(3).copy()
    wrong[2] ^= 3
    with pytest.raises(CorruptionError):
        client.retrieve(sims, params, theta=1, side={3: wrong}, seed=2, raw=True)


def test_tcp_endpoints_parses_host_port_lists():
    """``--endpoints`` is "host:port" items split on commas, blanks around
    an item ignored; an item without a host, or a port of digits, is refused."""
    assert client.tcp_endpoints("127.0.0.1:1, localhost:2") == [("127.0.0.1", 1),
                                                               ("localhost", 2)]
    for spec in ("host", "host:", ":80", "h:x"):
        with pytest.raises(ParameterError):
            client.tcp_endpoints(spec)


def test_tcp_endpoints_refuse_ports_outside_the_valid_range():
    """A port past 65535 would be wrapped modulo 65536 by the resolver, and
    port 0 dials nothing: both are refused, the bounds themselves taken."""
    assert client.tcp_endpoints("h:1,h:65535") == [("h", 1), ("h", 65535)]
    for spec in ("h:0", "h:65536", "h:70000"):
        with pytest.raises(ParameterError):
            client.tcp_endpoints(spec)


def test_sum_path_serves_a_point_with_too_few_evaluation_points():
    """The sum download asks one database and evaluates no point, so GF(2^4)
    serves it at N = 16, where the symmetric scheme has too few points."""
    params = SchemeParams(3, 2, 16, 1, w=4)
    store = random_store(standard_field(4), 3, 5, np.random.default_rng(109))
    sims = client.local_simulator(store, 1, role="stpir", secret=SECRET)
    result = client.retrieve(sims, params, 1, store.side_information({2, 3}), seed=1,
                             scheme="stpir")
    assert np.array_equal(result.message, store.message(1))
    assert result.rate == result.capacity == 1


def test_stpir_retrieval_and_shortcut():
    f4 = standard_field(4)
    store = random_store(f4, 3, 2, np.random.default_rng(102))
    params = SchemeParams(3, 0, 3, 1)
    servers = [DatabaseServer(store, role="stpir", secret=SECRET).start()
               for _ in range(3)]
    try:
        transports = tcp_transports(servers)
        result = client.retrieve(transports, params, theta=3, side={},
                                 seed=9, scheme="stpir")
        for t in transports:
            t.close()
        shortcut_params = SchemeParams(3, 2, 3, 1)
        tr = tcp_transports(servers[:1])
        short = client.retrieve(tr, shortcut_params, theta=1,
                                side=store.side_information({2, 3}),
                                seed=10, scheme="stpir")
        tr[0].close()
    finally:
        for s in servers:
            s.stop()
    assert np.array_equal(result.message, store.message(3))
    assert result.downloaded_symbols == 3
    assert np.array_equal(short.message, store.message(1))
    assert short.rate == 1


def test_server_error_frames(golden1_store):
    core = ServerCore(golden1_store)
    session = core.new_session()
    # query before params
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY, b"\x01")
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_PROTOCOL
    # unknown frame type leaves the session usable
    ftype, payload = core.handle_frame(session, 0x66, b"")
    assert ftype == wire.TYPE_ERROR
    ok = wire.params_payload({"scheme": "tpir", "endpoint": 1, "n_db": 2,
                              "k": 3, "m": 1, "t": 1, "w": 4,
                              "message_length": 8})
    ftype, payload = core.handle_frame(session, wire.TYPE_PARAMS, ok)
    assert ftype == wire.TYPE_PARAMS
    # malformed query -> 0x02, session still open; its one length is 96 bytes
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY, b"\x01trunc")
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY
    assert core.refuse_unread(session, wire.TYPE_QUERY, 96) is None
    assert wire.parse_error_payload(core.refuse_unread(session, wire.TYPE_QUERY, 97)) == (
        wire.ERR_MALFORMED_QUERY, "QUERY declares 97 bytes; this session takes 96")
    # N^K != L: the PARAMS fit no layered scheme, are refused and say why,
    # so the session takes no QUERY
    session = core.new_session()
    unfit = ok.replace(b'"n_db":2', b'"n_db":3')
    ftype, payload = core.handle_frame(session, wire.TYPE_PARAMS, unfit)
    assert wire.parse_error_payload(payload) == (
        wire.ERR_STORE_MISMATCH, "(K=3,M=1,N=3,T=1): the layered scheme takes messages of "
        "N^K = 27 symbols, not 8")
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY, b"\x01trunc")
    assert wire.parse_error_payload(payload) == (wire.ERR_PROTOCOL, "QUERY before PARAMS")


def test_out_of_range_symbol_reference(golden1_store):
    """A slot naming a message the store does not hold is refused."""
    from sidepir.tpir_psi import build_plan, database_queries
    import dataclasses
    core = ServerCore(golden1_store)
    session = core.new_session()
    core.handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 3, "m": 1, "t": 1,
         "w": 4, "message_length": 8}))
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 11)
    q = database_queries(plan, state.pool)[0]
    shape = dataclasses.replace(q.shape, slot_members=((7,),) + q.shape.slot_members[1:])
    bad = dataclasses.replace(q, shape=shape)
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY,
                                       wire.serialize_database_query(bad))
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY


@pytest.mark.parametrize("exc", [MemoryError(), ValueError("operands could not be broadcast")])
def test_server_fails_closed_on_internal_errors(golden1_store, monkeypatch, exc):
    """An exception outside the protocol's own errors still gets a typed
    ERROR frame, in process and over TCP, instead of a dropped connection."""
    from sidepir import tpir_psi
    from sidepir.tpir_psi import build_plan, database_queries

    def broken(query, store):
        raise exc

    monkeypatch.setattr(tpir_psi, "answer_raw", broken)
    params_frame = wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 3, "m": 1, "t": 1,
         "w": 4, "message_length": 8})
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 12)
    query_frame = wire.serialize_database_query(database_queries(plan, state.pool)[0])

    core = ServerCore(golden1_store)
    session = core.new_session()
    assert core.handle_frame(session, wire.TYPE_PARAMS, params_frame)[0] == wire.TYPE_PARAMS
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY, query_frame)
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_INTERNAL

    server = DatabaseServer(golden1_store).start()
    try:
        transport = client.TcpTransport("127.0.0.1", server.port)
        try:
            transport.send(((wire.TYPE_PARAMS, params_frame), (wire.TYPE_QUERY, query_frame)))
            assert transport.receive()[0] == wire.TYPE_PARAMS
            ftype, payload = transport.receive()
        finally:
            transport.close()
    finally:
        server.stop()
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_INTERNAL


def test_params_mismatch(golden1_store):
    core = ServerCore(golden1_store)
    for change, reason in (({"k": 5}, "store holds 3 messages"),
                           ({"scheme": "stpir"}, "server role is 'tpir', client wants 'stpir'"),
                           ({"message_length": 9}, "store messages have length 8"),
                           ({"endpoint": 0}, "bad endpoint assignment 0/2"),
                           ({"endpoint": 3}, "bad endpoint assignment 3/2")):
        bad = wire.params_payload({"scheme": "tpir", "endpoint": 1, "n_db": 2,
                                   "k": 3, "m": 1, "t": 1, "w": 4,
                                   "message_length": 8, **change})
        ftype, payload = core.handle_frame(core.new_session(), wire.TYPE_PARAMS, bad)
        assert ftype == wire.TYPE_ERROR
        assert wire.parse_error_payload(payload) == (wire.ERR_STORE_MISMATCH, reason)


@pytest.mark.parametrize("role", ["tpir", "stpir"])
def test_params_refuse_a_cached_count_outside_the_store(golden1_store, role):
    """M picks a stpir session's protocol, so an M outside 0..K-1 must pick
    none: it is refused with ERR_STORE_MISMATCH, as a wrong K is."""
    core = ServerCore(golden1_store, role=role, secret=SECRET)
    for m in (-1, 3, 39):
        fields = {"scheme": role, "endpoint": 1, "n_db": 2, "k": 3, "m": m, "t": 1, "w": 4,
                  "message_length": 8}
        ftype, payload = core.handle_frame(core.new_session(), wire.TYPE_PARAMS,
                                           wire.params_payload(fields))
        assert wire.parse_error_payload(payload) == (
            wire.ERR_STORE_MISMATCH, f"cached-message count M={m} must satisfy 0 <= M < K")


def test_truncated_frame_over_tcp(golden1_store):
    server = DatabaseServer(golden1_store).start()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        sock.sendall(b"PIR1" + bytes([wire.TYPE_QUERY]) + struct.pack("<I", 50) + b"xx")
        sock.shutdown(socket.SHUT_WR)
        data = sock.makefile("rb").read()
        sock.close()
    finally:
        server.stop()
    ftype, payload = wire.read_frame(__import__("io").BytesIO(data))
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_FRAME


def _raw_session(port, data, end=False):
    """Send raw bytes on a new connection, then with ``end`` close its write
    side; every reply frame until the server closes, read within a 3 s
    timeout."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=3)
    try:
        stream = sock.makefile("rwb")
        stream.write(data)
        stream.flush()
        if end:
            sock.shutdown(socket.SHUT_WR)
        replies = []
        while (head := wire.read_frame_head(stream)) is not None:
            replies.append((head[0], wire.read_exact(stream, head[1])))
        return replies
    finally:
        sock.close()


def test_frames_before_the_session_query_are_bounded(golden1_store):
    """Before PARAMS, and for any frame but the session's QUERY after it, a
    head declaring more than MAX_SESSIONLESS_FRAME bytes gets a typed ERROR
    at once, without the server waiting for the body, and the connection
    closes. A frame at the bound is still read."""
    from sidepir.server import MAX_SESSIONLESS_FRAME

    params = wire.encode_frame(wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 3, "m": 1, "t": 1,
         "w": 4, "message_length": 8}))

    def head(ftype, length):
        return b"PIR1" + bytes([ftype]) + struct.pack("<I", length)

    server = DatabaseServer(golden1_store).start()
    try:
        for prefix, ftype, length in ((b"", wire.TYPE_PARAMS, 1 << 30),
                                      (b"", wire.TYPE_QUERY, 1 << 30),
                                      (b"", 0x66, MAX_SESSIONLESS_FRAME + 1),
                                      (params, wire.TYPE_PARAMS, 1 << 30)):
            replies = _raw_session(server.port, prefix + head(ftype, length))
            assert [f for f, _ in replies] == [wire.TYPE_PARAMS] * bool(prefix) + [
                wire.TYPE_ERROR]
            assert wire.parse_error_payload(replies[-1][1])[0] == wire.ERR_MALFORMED_FRAME
        # at the bound the body is read, then parsed and refused as JSON, and
        # the connection stays open for the next frame
        replies = _raw_session(server.port, head(wire.TYPE_PARAMS, MAX_SESSIONLESS_FRAME)
                               + bytes(MAX_SESSIONLESS_FRAME) + params, end=True)
        assert [f for f, _ in replies] == [wire.TYPE_ERROR, wire.TYPE_PARAMS]
    finally:
        server.stop()


@pytest.mark.parametrize("name", ["endpoint", "n_db", "k", "m", "t", "w",
                                  "message_length"])
def test_params_integer_fields_refuse_booleans(golden1_store, name):
    """JSON true is not the integer 1: each integer field of PARAMS refuses a
    boolean (and a float) with a typed ERROR, and no session is set."""
    core = ServerCore(golden1_store)
    fields = {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 3, "m": 1, "t": 1,
              "w": 4, "message_length": 8}
    session = core.new_session()
    assert core.handle_frame(session, wire.TYPE_PARAMS,
                             wire.params_payload(fields))[0] == wire.TYPE_PARAMS
    for value in (True, False, float(fields[name])):
        session = core.new_session()
        ftype, reply = core.handle_frame(session, wire.TYPE_PARAMS,
                                         wire.params_payload({**fields, name: value}))
        assert ftype == wire.TYPE_ERROR
        code, message = wire.parse_error_payload(reply)
        assert code == wire.ERR_MALFORMED_FRAME and name in message
        assert session == {}


def test_server_disables_nagle_on_accepted_connections(golden1_store, monkeypatch):
    """A pipelined session gets its PARAMS reply and its ANSWER back to back;
    with TCP_NODELAY the second never waits for the client's ACK of the
    first."""
    from sidepir import server as server_mod

    seen = []
    original = server_mod.DatabaseServer._serve

    def serve(self, conn):
        seen.append(conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return original(self, conn)

    monkeypatch.setattr(server_mod.DatabaseServer, "_serve", serve)
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        tr = tcp_transports(servers)
        client.retrieve(tr, SchemeParams(3, 1, 2, 1), 2, golden1_store.side_information({3}),
                        seed=4)
        for t in tr:
            t.close()
    finally:
        for s in servers:
            s.stop()
    assert len(seen) == 2 and all(seen)


def _hang_up(transport):
    """Close a connection once the server has ended it too."""
    transport._sock.shutdown(socket.SHUT_WR)
    assert transport._file.read() == b""
    transport.close()


@pytest.fixture
def handler_threads(monkeypatch):
    """The threads that served a connection, per server."""
    from sidepir import server as server_mod

    threads = {}
    original = server_mod.DatabaseServer._serve

    def serve(self, conn):
        threads.setdefault(self, set()).add(threading.current_thread())
        return original(self, conn)

    monkeypatch.setattr(server_mod.DatabaseServer, "_serve", serve)
    return threads


def test_sequential_retrievals_reuse_one_handler_thread(golden1_store, handler_threads):
    """A connection that ends hands its thread to the next one: twenty
    sequential retrievals leave each server running at most two threads in
    all, whatever accepts the connections, not twenty."""
    side = golden1_store.side_information({3})
    before = threading.active_count()
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        for seed in range(20):
            tr = tcp_transports(servers)
            result = client.retrieve(tr, SchemeParams(3, 1, 2, 1), 1, side, seed=seed)
            assert np.array_equal(result.message, golden1_store.message(1))
            for t in tr:
                _hang_up(t)
        running = threading.active_count() - before
    finally:
        for s in servers:
            s.stop()
    assert running <= 2 * len(servers)
    assert [len(seen) <= 2 for seen in handler_threads.values()] == [True, True]


def test_an_idle_connection_does_not_hold_up_another(golden1_store):
    """Each open connection has a thread of its own: a session that sent its
    PARAMS and went quiet does not delay a full retrieval beside it."""
    side = golden1_store.side_information({3})
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        idle = tcp_transports(servers)
        for n, t in enumerate(idle, 1):
            t.send([(wire.TYPE_PARAMS, wire.params_payload(
                {"scheme": "tpir", "endpoint": n, "n_db": 2, "k": 3, "m": 1, "t": 1,
                 "w": 4, "message_length": 8}))])
            assert t.receive()[0] == wire.TYPE_PARAMS
        tr = [client.TcpTransport("127.0.0.1", s.port, timeout=5) for s in servers]
        result = client.retrieve(tr, SchemeParams(3, 1, 2, 1), 2, side, seed=8)
        for t in tr + idle:
            t.close()
    finally:
        for s in servers:
            s.stop()
    assert np.array_equal(result.message, golden1_store.message(2))


def test_concurrent_connections_each_get_a_thread(golden1_store, handler_threads):
    """More clients than cores, with a short switch interval: in each of
    twenty rounds eight connections are answered while all eight stay open
    (none waits behind another's thread), and the server never runs more
    threads in all than one more than it had connections open at once."""
    clients, errors = 8, []
    barrier = threading.Barrier(clients, timeout=10)
    before = threading.active_count()
    server = DatabaseServer(golden1_store).start()

    def run():
        try:
            for _ in range(20):
                t = client.TcpTransport("127.0.0.1", server.port, timeout=10)
                t.send([(wire.TYPE_QUERY, bytes(8))])
                assert t.receive()[0] == wire.TYPE_ERROR
                barrier.wait()
                _hang_up(t)
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    workers = [threading.Thread(target=run) for _ in range(clients)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
        running = threading.active_count() - before
    finally:
        sys.setswitchinterval(switch)
        server.stop()
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert running <= clients + 1
    assert [len(seen) <= clients + 1 for seen in handler_threads.values()] == [True]


def test_stop_waits_for_the_session_in_flight_and_ends_every_thread(golden1_store):
    """stop() answers a frame the server is handling before it returns, and
    leaves no thread behind: not the handler of that open connection, nor
    the idle one of an earlier connection."""
    before = threading.active_count()
    server = DatabaseServer(golden1_store).start()
    earlier = [client.TcpTransport("127.0.0.1", server.port) for _ in range(2)]
    for t in earlier:
        t.send([(wire.TYPE_QUERY, bytes(8))])
        assert t.receive()[0] == wire.TYPE_ERROR
    _hang_up(earlier[0])
    entered, release = threading.Event(), threading.Event()
    original = server.core.handle_frame

    def slow(session, ftype, payload):
        entered.set()
        release.wait(5)
        return original(session, ftype, payload)

    server.core.handle_frame = slow
    stopper = threading.Thread(target=server.stop)
    try:
        earlier[1].send([(wire.TYPE_QUERY, bytes(8))])
        assert entered.wait(5)
        stopper.start()
        # far longer than an idle worker takes to wake and end
        stopper.join(1)
        assert stopper.is_alive()
    finally:
        release.set()
    assert earlier[1].receive()[0] == wire.TYPE_ERROR
    stopper.join(5)
    assert not stopper.is_alive()
    earlier[1].close()
    assert threading.active_count() == before


def test_stop_cuts_a_client_that_does_not_read_its_answer(golden1_store, monkeypatch):
    """A handler blocked writing an answer no one reads does not hold up
    stop(): the connection is cut after the grace, and no thread is left."""
    from sidepir import server as server_mod

    monkeypatch.setattr(server_mod, "CLOSE_GRACE", 0.2)
    before = threading.active_count()
    server = DatabaseServer(golden1_store).start()
    written = threading.Event()

    def large(session, ftype, payload):
        written.set()
        # far more than the loopback buffers of both ends hold
        return wire.TYPE_ANSWER, bytes(1 << 23)

    server.core.handle_frame = large
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stopper = threading.Thread(target=server.stop)
    try:
        sock.connect(("127.0.0.1", server.port))
        sock.sendall(wire.encode_frame(wire.TYPE_PARAMS, b"{}"))
        assert written.wait(5)
        stopper.start()
        stopper.join(5)
        assert not stopper.is_alive()
    finally:
        sock.close()
    stopper.join(5)
    assert threading.active_count() == before


def test_an_idle_server_stops_at_once(golden1_store):
    """stop() on an idle server, fresh or with an idle worker left by a
    finished connection, returns within 0.1 s: shutting the listening
    socket wakes every worker blocked in accept()."""
    for served in (False, True):
        server = DatabaseServer(golden1_store).start()
        if served:
            transport = client.TcpTransport("127.0.0.1", server.port)
            transport.send([(wire.TYPE_QUERY, bytes(8))])
            assert transport.receive()[0] == wire.TYPE_ERROR
            _hang_up(transport)
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.1


def test_a_stop_racing_a_burst_of_connects_leaks_no_thread(golden1_store):
    """Four clients connect and send a junk QUERY in a loop while stop()
    runs: a worker that takes a connection as the server stops starts no
    follower that outlives it, and stop() leaves no thread behind."""
    for _ in range(5):
        before = threading.active_count()
        server = DatabaseServer(golden1_store).start()
        answered, stopped = threading.Event(), threading.Event()

        def run():
            while not stopped.is_set():
                try:
                    with socket.create_connection(("127.0.0.1", server.port),
                                                  timeout=5) as sock:
                        sock.sendall(wire.encode_frame(wire.TYPE_QUERY, bytes(8)))
                        if sock.recv(64):
                            answered.set()
                except OSError:  # refused or reset once the server stops
                    pass

        clients = [threading.Thread(target=run) for _ in range(4)]
        stopper = threading.Thread(target=server.stop)
        try:
            for c in clients:
                c.start()
            assert answered.wait(5)
            stopper.start()
            stopper.join(10)
        finally:
            stopped.set()
            for c in clients:
                c.join(10)
        assert not stopper.is_alive()
        assert not any(c.is_alive() for c in clients)
        assert threading.active_count() == before


def test_a_server_never_started_stops(golden1_store):
    """stop() on a server that never started a worker returns and frees its
    port: there is no worker for it to wait for."""
    server = DatabaseServer(golden1_store)
    port = server.port
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive()
    with socket.socket() as again:
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        again.bind(("127.0.0.1", port))


def test_a_busy_port_is_an_os_error(golden1_store, tmp_path, capsys):
    """Binding a port another socket listens on raises the OSError itself,
    and `sidepir serve` reports it as an error line with exit 1."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with pytest.raises(OSError):
            DatabaseServer(golden1_store, port=port)
        wire.write_store(tmp_path / "store.pir", golden1_store)
        assert cli_main(["serve", "--port", str(port),
                         "--store", str(tmp_path / "store.pir")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("scheme,params,cached", [
    ("tpir", SchemeParams(3, 1, 2, 1), {3}),
    ("stpir", SchemeParams(3, 0, 3, 1), set()),
    ("stpir", SchemeParams(3, 2, 3, 1), {2, 3}),
], ids=["layered", "symmetric", "sum"])
def test_a_session_ends_after_its_answered_query(golden1_store, scheme, params, cached):
    """A session is one QUERY: once one is answered, a second QUERY or a new
    PARAMS on that session gets a protocol ERROR from the core, not a second
    ANSWER; and the simulator, as a TCP connection does, ends the stream at
    the ANSWER, so that frames sent after it get no reply."""
    store = golden1_store if scheme == "tpir" else random_store(
        standard_field(4), 3, 2, np.random.default_rng(102))
    sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
    result = client.retrieve(sims, params, 1, store.side_information(cached), seed=3,
                             scheme=scheme)
    core = ServerCore(store, role=scheme, secret=SECRET)
    refused = wire.TYPE_ERROR, wire.error_payload(wire.ERR_PROTOCOL,
                                                  "the session has answered its QUERY")
    for sim, t in zip(sims, result.transcripts):
        session = core.new_session()
        assert core.handle_frame(session, wire.TYPE_PARAMS, t.params_sent)[0] == wire.TYPE_PARAMS
        assert core.handle_frame(session, wire.TYPE_QUERY, t.query_sent) == (
            wire.TYPE_ANSWER, t.answer_received)
        assert core.handle_frame(session, wire.TYPE_QUERY, t.query_sent) == refused
        assert core.handle_frame(session, wire.TYPE_PARAMS, t.params_sent) == refused
        sim.send([(wire.TYPE_QUERY, t.query_sent), (wire.TYPE_PARAMS, t.params_sent)])
        with pytest.raises(ProtocolError, match="^stream ended before a frame$"):
            sim.receive()


def test_a_connection_ends_after_its_answered_query(golden1_store):
    """Over TCP the server ends a connection right after its ANSWER: a second
    QUERY pipelined behind the first gets no reply, only the end of the
    stream, and the next connection is served as usual."""
    params, side = SchemeParams(3, 1, 2, 1), golden1_store.side_information({3})
    t = client.retrieve(client.local_simulator(golden1_store, 2), params, 1, side,
                        seed=3).transcripts[0]
    server = DatabaseServer(golden1_store).start()
    try:
        for repeat in (1, 2):
            with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
                stream = sock.makefile("rwb")
                stream.write(wire.encode_frame(wire.TYPE_PARAMS, t.params_sent)
                             + wire.encode_frame(wire.TYPE_QUERY, t.query_sent) * repeat)
                stream.flush()
                assert wire.read_frame(stream) == (wire.TYPE_PARAMS, t.params_received)
                assert wire.read_frame(stream) == (wire.TYPE_ANSWER, t.answer_received)
                assert stream.read() == b""
    finally:
        server.stop()


def _replies_and_end(transport, frames):
    """Every reply ``transport`` reads after sending ``frames``, and the
    error that its stream then ends with."""
    transport.send(frames)
    replies = []
    while True:
        try:
            replies.append(transport.receive())
        except ProtocolError as exc:
            transport.close()
            return replies, str(exc)


def test_the_simulator_and_tcp_give_the_same_replies_and_end():
    """The in-process simulator runs the session loop a TCP connection runs:
    an honest session of each scheme, an oversized PARAMS, an oversized frame
    before PARAMS, a QUERY of a wrong length followed by an honest one, and a
    frame after the ANSWER get the same replies and the same end of stream."""
    layered = random_store(standard_field(4), 3, 8, np.random.default_rng(100))
    sym = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    points = {"layered": ("tpir", layered, SchemeParams(3, 1, 2, 1), {3}),
              "symmetric": ("stpir", sym, SchemeParams(3, 0, 3, 1), set()),
              "sum": ("stpir", sym, SchemeParams(3, 2, 3, 1), {2, 3})}
    servers = {role: DatabaseServer(store, role=role, secret=SECRET).start()
               for role, store in (("tpir", layered), ("stpir", sym))}
    try:
        for name, (role, store, params, cached) in points.items():
            sims = client.local_simulator(store, params.N, role=role, secret=SECRET)
            t = client.retrieve(sims, params, 1, store.side_information(cached), seed=4,
                                scheme=role).transcripts[0]
            params_frame = wire.TYPE_PARAMS, t.params_sent
            query = wire.TYPE_QUERY, t.query_sent
            cases = {
                "honest": ([params_frame, query], [wire.TYPE_PARAMS, wire.TYPE_ANSWER]),
                "oversized PARAMS": ([(wire.TYPE_PARAMS, t.params_sent.ljust(5091)), query],
                                     [wire.TYPE_ERROR]),
                "oversized first frame": ([(wire.TYPE_QUERY, bytes(5091)), params_frame],
                                          [wire.TYPE_ERROR]),
                "wrong QUERY length": ([params_frame, (wire.TYPE_QUERY, t.query_sent + b"\0"),
                                        query], [wire.TYPE_PARAMS, wire.TYPE_ERROR]),
                "frame after ANSWER": ([params_frame, query, query],
                                       [wire.TYPE_PARAMS, wire.TYPE_ANSWER]),
            }
            for case, (frames, types) in cases.items():
                local = _replies_and_end(
                    client.LocalTransport(ServerCore(store, role=role, secret=SECRET)), frames)
                over_tcp = _replies_and_end(
                    client.TcpTransport("127.0.0.1", servers[role].port, timeout=5), frames)
                assert local == over_tcp, (name, case)
                assert [ftype for ftype, _ in local[0]] == types, (name, case)
                assert local[1] == "stream ended before a frame", (name, case)
    finally:
        for server in servers.values():
            server.stop()


def test_a_burst_of_connects_is_not_dropped(golden1_store):
    """The listen backlog holds a burst: 32 back-to-back connects each finish
    well inside the second a dropped SYN would cost its client, and each
    connection then gets a typed reply."""
    server = DatabaseServer(golden1_store).start()
    socks = []
    try:
        for _ in range(32):
            start = time.perf_counter()
            socks.append(socket.create_connection(("127.0.0.1", server.port), timeout=5))
            assert time.perf_counter() - start < 0.5
        for sock in socks:
            sock.sendall(wire.encode_frame(wire.TYPE_QUERY, bytes(8)))
        for sock in socks:
            ftype, payload = wire.read_frame(sock.makefile("rb"))
            assert ftype == wire.TYPE_ERROR
            assert wire.parse_error_payload(payload) == (wire.ERR_PROTOCOL, "QUERY before PARAMS")
    finally:
        for sock in socks:
            sock.close()
        server.stop()


@pytest.mark.skipif(not hasattr(socket, "TCP_DEFER_ACCEPT"),
                    reason="the platform has no deferred accept")
def test_a_late_first_frame_is_answered_and_a_silent_connection_does_not_hold_up_stop(
        golden1_store):
    """The listener defers each accept until the connection's first bytes
    arrive: a client that connects and sends 50 ms later is still answered,
    and a connection that never sends does not delay stop()."""
    server = DatabaseServer(golden1_store).start()
    listener = server.socket
    assert listener.getsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT) > 0
    silent = socket.create_connection(("127.0.0.1", server.port), timeout=3)
    late = socket.create_connection(("127.0.0.1", server.port), timeout=3)
    try:
        time.sleep(0.05)
        late.sendall(wire.encode_frame(wire.TYPE_QUERY, bytes(8)))
        assert wire.read_frame(late.makefile("rb"))[0] == wire.TYPE_ERROR
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.5
    finally:
        silent.close()
        late.close()
        server.stop()


def test_session_caches_stay_bounded(golden1_store):
    """What a server keeps per PARAMS is keyed only by public values and
    bounded: 1,000 PARAMS with distinct (M, N, T) each get PARAMS or
    ERR_STORE_MISMATCH (an M outside 0..K-1 the latter), more of them
    accepted than the QUERY-shape cache holds, and sessions at 117 distinct
    (endpoint, T) are each answered, while neither the QUERY-shape cache nor
    the point-power cache grows past its bound."""
    from sidepir import server as server_mod
    from sidepir import stpir_psi

    f4 = standard_field(4)
    sym_store = random_store(f4, 3, 2, np.random.default_rng(102))
    cores = [ServerCore(golden1_store), ServerCore(sym_store, role="stpir", secret=SECRET)]
    accepted = 0
    for core in cores:
        length = core.store.message_length
        for i in range(1000):
            fields = {"scheme": core.role, "endpoint": 1, "n_db": i // 64 + 2, "k": 3,
                      "m": i % 4, "t": i // 4 % 16 + 1, "w": 4, "message_length": length}
            session = core.new_session()
            ftype, reply = core.handle_frame(session, wire.TYPE_PARAMS,
                                             wire.params_payload(fields))
            if ftype == wire.TYPE_ERROR:
                assert wire.parse_error_payload(reply)[0] == wire.ERR_STORE_MISMATCH
                continue
            assert ftype == wire.TYPE_PARAMS and fields["m"] < 3
            accepted += 1
            error = core.refuse_unread(session, wire.TYPE_QUERY, 1 << 20)
            assert wire.parse_error_payload(error)[0] == wire.ERR_MALFORMED_QUERY
    assert accepted > server_mod._session_query.cache_info().maxsize
    coords = f4.random_symbols(np.random.default_rng(9), (3, 2))
    for n_db in range(3, 16):
        t = n_db - 2
        query = wire.serialize_sym_query(4, bytes(16), t, coords)
        for endpoint in range(1, n_db + 1):
            session = cores[1].new_session()
            cores[1].handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(
                {"scheme": "stpir", "endpoint": endpoint, "n_db": n_db, "k": 3, "m": 0,
                 "t": t, "w": 4, "message_length": 2}))
            assert cores[1].handle_frame(session, wire.TYPE_QUERY, query)[0] == wire.TYPE_ANSWER
    for cache in (server_mod._session_query, stpir_psi._endpoint_powers):
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


def _transcript_digest(result) -> str:
    h = hashlib.sha256()
    for t in result.transcripts:
        for part in (t.params_sent, t.params_received, t.query_sent, t.answer_received):
            h.update(len(part).to_bytes(4, "little") + part)
    h.update(np.ascontiguousarray(result.message).tobytes())
    return h.hexdigest()


# (scheme, params, store width and message length, store seed, cached set,
# theta, raw) and the sha256 of the seed-0 transcripts and message, as the
# client and servers wrote them before their per-point caches; the layered
# ones as written since a session draws one L x L mixer and K - 1 u x L
# blocks, which consumes the random stream differently; the sum one as
# written since its PARAMS name the point's N, not the one endpoint asked
PINNED_TRANSCRIPTS = {
    "layered": ("tpir", SchemeParams(3, 1, 2, 1), 4, 8, 102, {3}, 2, False,
                "97a53e3ce81275238060fe9e71921b45a1f96688b0f46827d61b9673b3cc6a66"),
    "layered-raw": ("tpir", SchemeParams(3, 1, 2, 1), 4, 8, 102, {3}, 2, True,
                    "e079ac0de1a13ab791da00b0cd6273e6685c8ee375b04e02a026cf0e72050d87"),
    "layered-T=2": ("tpir", SchemeParams(4, 2, 3, 2), 8, 81, 104, {1, 4}, 3, False,
                    "97cd78f4532601dafcf89f6e621fabfb366f106cf98dea4937447446a3df7348"),
    "symmetric-T=2": ("stpir", SchemeParams(4, 1, 3, 2), 4, 1, 106, {2}, 1, False,
                      "eafd6984220dbeaaa7a436ad503b0ef7b0bafb47ee880be2c3f1796c431f5a7d"),
    "symmetric-K=4096": ("stpir", SchemeParams(4096, 0, 2, 1, w=4), 4, 1, 108, set(), 77,
                         False,
                         "e3e0d0c40798c447edb85f1cdefb4ef03f9ee853ecbb88f7e8afb082ebc09cf0"),
    "sum": ("stpir", SchemeParams(3, 2, 3, 1), 4, 5, 109, {2, 3}, 1, False,
            "e8d8a1a08691903341f50c40a3e28a9d56b211017d37f33dcd5e95178db2106a"),
}


@pytest.mark.parametrize("point", sorted(PINNED_TRANSCRIPTS))
def test_fixed_seed_transcripts_are_pinned(point):
    """Caching what depends only on a parameter point changes no byte: the
    transcripts of fixed-seed retrievals, in process and over TCP, hash to
    the values pinned before those caches."""
    scheme, params, w, length, store_seed, cached, theta, raw, pinned = \
        PINNED_TRANSCRIPTS[point]
    store = random_store(standard_field(w), params.K, length,
                         np.random.default_rng(store_seed))
    secret = SECRET if scheme == "stpir" else None
    side = store.side_information(cached)
    n = 1 if scheme == "stpir" and params.M == params.K - 1 else params.N
    local = client.retrieve(client.local_simulator(store, n, role=scheme, secret=secret),
                            params, theta, side, seed=0, scheme=scheme, raw=raw)
    servers = [DatabaseServer(store, role=scheme, secret=secret).start() for _ in range(n)]
    try:
        tr = tcp_transports(servers)
        over_tcp = client.retrieve(tr, params, theta, side, seed=0, scheme=scheme, raw=raw)
        for t in tr:
            t.close()
    finally:
        for s in servers:
            s.stop()
    assert _transcript_digest(local) == _transcript_digest(over_tcp) == pinned


def test_a_seeded_retrieval_gives_its_theta_away(golden1_store):
    """A seeded retrieval is reproducible and therefore not private: from
    database 1's QUERY payload alone, a search over small seeds and every
    theta with the layered protocol's own payloads finds theta and the seed.
    An unseeded retrieval's payload is none of them: it has no seed."""
    from sidepir.stpir_psi import session_protocol

    params, side = SchemeParams(3, 1, 2, 1), golden1_store.side_information({3})
    protocol = session_protocol("tpir", params)

    def sent(seed):
        return client.retrieve(client.local_simulator(golden1_store, 2), params, 2, side,
                               seed=seed).transcripts[0].query_sent

    found = {protocol.payloads(protocol.draw(theta, [np.random.default_rng(seed)]))[0][1]:
             (theta, seed) for seed in range(16) for theta in range(1, params.K + 1)}
    assert found[sent(11)] == (2, 11)
    assert sent(None) not in found


@pytest.mark.parametrize("scheme,params,cached", [
    ("tpir", SchemeParams(3, 1, 2, 1), {3}),
    ("stpir", SchemeParams(3, 0, 3, 1), set()),
], ids=["layered", "symmetric"])
def test_an_unseeded_retrieval_draws_from_the_os(golden1_store, monkeypatch, scheme, params,
                                                  cached):
    """Without a seed a retrieval's randomness comes from the operating
    system: after a warm-up it builds no numpy Generator, it decodes, and two
    retrievals send different QUERY payloads and, in the symmetric scheme,
    different session ids."""
    store = golden1_store if scheme == "tpir" else random_store(
        standard_field(4), 3, 2, np.random.default_rng(102))

    def queries():
        sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
        result = client.retrieve(sims, params, 1, store.side_information(cached), scheme=scheme)
        assert np.array_equal(result.message, store.message(1))
        return [t.query_sent for t in result.transcripts]

    queries()

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    first, second = queries(), queries()
    assert all(a != b for a, b in zip(first, second))
    if scheme == "stpir":
        ids = wire.SESSION_ID_AT, wire.SESSION_ID_AT + 16
        assert first[0][slice(*ids)] != second[0][slice(*ids)]


@pytest.mark.parametrize("role,fields,honest", [
    ("tpir", {"k": 3, "m": 1, "n_db": 2, "t": 1, "w": 4, "message_length": 8}, 96),
    ("stpir", {"k": 3, "m": 0, "n_db": 3, "t": 1, "w": 4, "message_length": 2}, 27),
], ids=["tpir", "stpir"])
def test_query_sized_before_its_body_is_read(role, fields, honest):
    """After PARAMS a QUERY head that declares a length the session cannot
    take (1 GiB, or one byte off a genuine query's) gets a typed ERROR at
    once, without the server waiting for the body, and the connection
    closes. A QUERY of the genuine length is read: its zero body is then
    refused by the parser, on a connection that stays open."""
    store = random_store(standard_field(4), fields["k"], fields["message_length"],
                         np.random.default_rng(106))
    params = wire.encode_frame(wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": role, "endpoint": 1, **fields}))
    server = DatabaseServer(store, role=role, secret=SECRET).start()
    try:
        for length in (1 << 30, honest + 1, honest - 1, 0):
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=3)
            stream = sock.makefile("rwb")
            stream.write(params)
            stream.flush()
            assert wire.read_frame(stream)[0] == wire.TYPE_PARAMS
            stream.write(b"PIR1" + bytes([wire.TYPE_QUERY]) + struct.pack("<I", length))
            stream.flush()
            ftype, payload = wire.read_frame(stream)
            assert ftype == wire.TYPE_ERROR
            assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY
            assert stream.read() == b""
            sock.close()
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=3)
        stream = sock.makefile("rwb")
        stream.write(params + wire.encode_frame(wire.TYPE_QUERY, bytes(honest)) + params)
        stream.flush()
        assert wire.read_frame(stream)[0] == wire.TYPE_PARAMS
        ftype, payload = wire.read_frame(stream)
        assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY
        assert wire.read_frame(stream)[0] == wire.TYPE_PARAMS
        sock.close()
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_capacity(capsys):
    assert cli_main(["capacity", "--K", "4", "--M", "1", "--N", "1", "--T", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/3"
    assert cli_main(["capacity", "--K", "3", "--M", "0", "--N", "3", "--T", "1",
                     "--symmetric", "--rho", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert cli_main(["capacity", "--K", "3", "--M", "0", "--N", "3", "--T", "1",
                     "--symmetric", "--rho", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "2/3"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli_main(["capacity", "--K", "3"])
    assert err.value.code == 2


def test_cli_store_serve_retrieve(tmp_path, capsys):
    store_path = tmp_path / "store.pir"
    side_path = tmp_path / "side.pir"
    out_path = tmp_path / "msg.bin"
    assert cli_main(["gen-store", "--scheme", "tpir", "--K", "3", "--M", "1",
                     "--N", "2", "--T", "1", "--seed", "7",
                     "--out", str(store_path),
                     "--extract-side", "3", "--side-out", str(side_path)]) == 0
    capsys.readouterr()
    store = wire.read_store(store_path)
    servers = [DatabaseServer(store).start() for _ in range(2)]
    endpoints = ",".join(f"127.0.0.1:{s.port}" for s in servers)
    try:
        # unseeded, as a private retrieval runs, and seeded, to replay one
        for seed in ([], ["--seed", "42"]):
            out_path.unlink(missing_ok=True)
            assert cli_main(["retrieve", "--endpoints", endpoints, "--K", "3",
                             "--M", "1", "--N", "2", "--T", "1", "--theta", "1",
                             "--S", "3", "--side-file", str(side_path),
                             *seed, "--out", str(out_path)]) == 0
            assert "rate 2/3 matches capacity 2/3" in capsys.readouterr().out
            assert out_path.read_bytes() == standard_field(4).pack(store.message(1))
    finally:
        for s in servers:
            s.stop()


def test_cli_audit_and_bench(tmp_path, capsys):
    assert cli_main(["audit", "correctness", "--K", "2", "--M", "0", "--N", "2",
                     "--T", "1", "--sessions", "10", "--seed", "0"]) == 0
    capsys.readouterr()
    json_path = tmp_path / "report.json"
    assert cli_main(["audit", "rate", "--K", "3", "--M", "2", "--N", "3",
                     "--T", "2", "--sessions", "3", "--seed", "0",
                     "--json", str(json_path)]) == 0
    capsys.readouterr()
    assert json_path.exists()
    csv_path = tmp_path / "bench.csv"
    assert cli_main(["audit", "rate", "--grid", "K<=2,N<=2", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("K,M,N,T,scheme,rate_num")
    assert len(lines) > 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["capacity", "--K", "3", "--M", "0", "--N", "3", "--T", "1",
     "--symmetric", "--rho", "abc"],
    ["audit", "correctness", "--grid"],
    ["audit", "rate", "--grid", "K<=0", "--csv", "{tmp}/rates.csv"],
    ["audit", "rate", "--grid", "K<=x", "--csv", "{tmp}/rates.csv"],
    ["gen-store", "--K", "3", "--M", "1", "--N", "2", "--T", "1", "--seed", "1",
     "--out", "{tmp}/store.pir", "--extract-side", "2"],
    ["gen-store", "--K", "3", "--M", "1", "--N", "2", "--T", "1", "--seed", "1",
     "--out", "{tmp}/store.pir", "--extract-side", "x", "--side-out", "{tmp}/side.pir"],
    ["retrieve", "--endpoints", "127.0.0.1:1", "--K", "3", "--M", "1", "--N", "2",
     "--T", "1", "--theta", "1", "--S", "x", "--side-file", "{tmp}/side.pir",
     "--seed", "1", "--out", "{tmp}/msg.bin"],
    ["audit", "user-privacy", "--K", "3", "--N", "2", "--T", "1", "--sessions", "0"],
    ["audit", "correctness", "--K", "3", "--N", "2", "--T", "1", "--sessions", "-3"],
    ["audit", "db-privacy", "--K", "3", "--N", "3", "--T", "1", "--scheme", "stpir",
     "--sessions", "0", "--json", "{tmp}/db.json"],
    ["audit", "rate", "--K", "3", "--N", "2", "--T", "1", "--sessions", "0"],
    ["serve", "--port", "0", "--store", "{tmp}/store.pir"],
    ["retrieve", "--endpoints", "127.0.0.1:1,127.0.0.1:1,127.0.0.1:1", "--K", "3",
     "--N", "3", "--T", "1", "--theta", "1", "--seed", "1", "--out", "{tmp}/msg.bin",
     "--scheme", "stpir", "--raw"],
], ids=["rho", "grid-not-rate", "empty-grid", "bad-grid", "side-out", "bad-side",
        "bad-cached-set", "zero-sessions", "negative-sessions", "db-privacy-sessions",
        "rate-sessions", "non-hex-secret", "stpir-raw"])
def test_cli_usage_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, argv):
    # read only by the commands that use a secret: here, serve
    monkeypatch.setenv("SIDEPIR_SECRET", "zz")
    with pytest.raises(SystemExit) as err:
        cli_main([arg.format(tmp=tmp_path) for arg in argv])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_serve_refuses_a_port_outside_the_valid_range(golden1_store, tmp_path):
    """`sidepir serve --port 70000` on a readable store is a usage error
    (exit 2), not an OverflowError from the bind."""
    wire.write_store(tmp_path / "store.pir", golden1_store)
    with pytest.raises(SystemExit) as err:
        cli_main(["serve", "--port", "70000", "--store", str(tmp_path / "store.pir")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["serve", "--port", "0", "--store", "{tmp}/missing.pir"],
    ["retrieve", "--endpoints", "127.0.0.1:1,127.0.0.1:1", "--K", "3", "--M", "0",
     "--N", "2", "--T", "1", "--theta", "1", "--seed", "1", "--out", "{tmp}/msg.bin"],
], ids=["missing-store", "refused-endpoint"])
def test_cli_os_errors_exit_1_with_an_error_line(tmp_path, capsys, argv):
    assert cli_main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_gen_store_checks_side_indices_before_writing(tmp_path, capsys):
    """A cached index outside 1..K is refused before the store is written."""
    argv = ["gen-store", "--K", "3", "--M", "1", "--N", "2", "--T", "1", "--seed", "1",
            "--out", str(tmp_path / "s.pir"), "--extract-side", "9",
            "--side-out", str(tmp_path / "side.pir")]
    assert cli_main(argv) == 1
    assert "outside 1..3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_audit_grid(capsys):
    assert cli_main(["audit", "rate", "--grid", "--sessions", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_sum_path_at_t_equals_n_writes_the_message(tmp_path, capsys):
    """The all-but-one path runs at T = N, where no symmetric store exists:
    the CLI writes the message in the width the retrieval used."""
    store = random_store(standard_field(4), 3, 2, np.random.default_rng(108))
    side_path, out_path = tmp_path / "side.pir", tmp_path / "msg.bin"
    wire.write_store(side_path, type(store)(field=store.field, messages=store.messages[1:]))
    servers = [DatabaseServer(store, role="stpir", secret=SECRET).start() for _ in range(2)]
    try:
        endpoints = ",".join(f"127.0.0.1:{s.port}" for s in servers)
        code = cli_main(["retrieve", "--endpoints", endpoints, "--scheme", "stpir",
                         "--K", "3", "--M", "2", "--N", "2", "--T", "2", "--theta", "1",
                         "--S", "2,3", "--side-file", str(side_path), "--seed", "1",
                         "--out", str(out_path)])
    finally:
        for s in servers:
            s.stop()
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "rate 1 matches capacity 1" in out.out
    assert out_path.read_bytes() == store.field.pack(store.message(1))


def test_cli_import_loads_no_audit_stack():
    """Serving and retrieving never load the audits or scipy.stats: only the
    audit command imports them."""
    import os
    import subprocess
    import sys

    code = ("import sys, sidepir.cli; "
            "print(sorted({'sidepir.audit', 'scipy.stats'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_sum_path_refuses_a_wrong_cache_before_sending():
    """The all-but-one path checks that the cache holds exactly the K-1
    other messages before its query leaves: a mislabelled cache must not
    decode to a wrong message, and a cached desired index is refused. The
    layered path checks count, indices, shape and symbol range of its cache
    before its first frame too."""
    from sidepir.errors import InvalidSideInformationError

    store = random_store(standard_field(4), 3, 2, np.random.default_rng(103))
    sent = []

    class Recording(client.LocalTransport):
        def send(self, frames):
            sent.extend(ftype for ftype, _ in frames)
            super().send(frames)

    w2, w3 = store.message(2), store.message(3).astype(np.int64)
    # a symbol past GF(2^4), read as x | 16 or wrapped by the cast from 256 + x
    for side in ({2: w2, 7: w2}, {1: store.message(1), 2: w2}, {2: w2},
                 {2: w2, 3: w3 | 16}, {2: w2, 3: w3 + 256}, {2: w2, 3: w3 - 16},
                 {2: w2, 3: w3.astype(float)}):
        sims = [Recording(ServerCore(store, role="stpir", secret=SECRET))]
        with pytest.raises(InvalidSideInformationError):
            client.retrieve(sims, SchemeParams(3, 2, 3, 1), 1, side, seed=1,
                            scheme="stpir")

    layered = random_store(standard_field(4), 3, 8, np.random.default_rng(104))
    w3 = layered.message(3).astype(np.int64)
    big = w3.copy()
    big[0] = 16  # outside GF(2^4)
    for side in ({1: w3}, {2: w3, 3: w3}, {3: w3[:5]}, {3: big}, {3: w3 + 256},
                 {4: w3}, {3: w3.astype(float)}):
        sims = [Recording(ServerCore(layered)) for _ in range(2)]
        with pytest.raises(InvalidSideInformationError):
            client.retrieve(sims, SchemeParams(3, 1, 2, 1), 1, side, seed=1)
    assert sent == []

    # the recording sees what an honest retrieval sends: PARAMS and QUERY
    # for each endpoint it asks
    sims = [Recording(ServerCore(store, role="stpir", secret=SECRET))]
    client.retrieve(sims, SchemeParams(3, 2, 3, 1), 1, store.side_information({2, 3}),
                    seed=1, scheme="stpir")
    sims = [Recording(ServerCore(layered)) for _ in range(2)]
    client.retrieve(sims, SchemeParams(3, 1, 2, 1), 1, layered.side_information({3}),
                    seed=1)
    assert sent == [wire.TYPE_PARAMS, wire.TYPE_QUERY] * 3


@pytest.mark.parametrize("scheme,params", [
    ("tpir", SchemeParams(4, 1, 3, 1)),
    ("stpir", SchemeParams(4, 1, 3, 1)),
    ("stpir", SchemeParams(4, 3, 3, 1)),
], ids=["layered", "symmetric", "sum"])
def test_every_protocol_refuses_a_wrong_cache_before_sending(scheme, params):
    """One cache check runs on the layered, symmetric and sum protocols
    before anything is drawn or sent: a cache that holds the desired
    message, too few or too many messages, or an index outside 1..K with
    symbols outside GF(2^4) is a typed error, and no transport sees a frame."""
    from sidepir.errors import InvalidSideInformationError
    from sidepir.stpir_psi import session_protocol

    length = session_protocol(scheme, params).message_length
    store = random_store(standard_field(4), params.K, length, np.random.default_rng(110))
    w = {i: store.message(i) for i in range(1, params.K + 1)}
    sent = []

    class Recording(client.LocalTransport):
        def send(self, frames):
            sent.extend(frames)
            super().send(frames)

    for side in ({1: w[1]}, {}, {2: w[2], 3: w[3]}, {9: [99, 99]}):
        sims = [Recording(ServerCore(store, role=scheme, secret=SECRET))
                for _ in range(params.N)]
        with pytest.raises(InvalidSideInformationError):
            client.retrieve(sims, params, 1, side, seed=1, scheme=scheme)
    assert sent == []


class Logging(client.LocalTransport):
    """Logs (call, transport, frame types) of every send and receive."""

    def __init__(self, core, log):
        super().__init__(core)
        self.log = log

    def send(self, frames):
        self.log.append(("send", self, [ftype for ftype, _ in frames]))
        super().send(frames)

    def receive(self, limit):
        self.log.append(("receive", self, None))
        return super().receive(limit)


@pytest.mark.parametrize("scheme,params,cached", [
    ("tpir", SchemeParams(3, 1, 2, 1), {3}),
    ("stpir", SchemeParams(3, 0, 3, 1), set()),
    ("stpir", SchemeParams(3, 2, 3, 1), {2, 3}),
], ids=["layered", "symmetric", "sum"])
def test_client_pipelines_each_endpoint(golden1_store, scheme, params, cached):
    """Each endpoint's PARAMS and QUERY leave in one send, every endpoint is
    sent to before the first reply is read, and then each endpoint's two
    replies are read in endpoint order."""
    store = golden1_store if scheme == "tpir" else random_store(
        standard_field(4), 3, 2, np.random.default_rng(102))
    log = []
    sims = [Logging(ServerCore(store, role=scheme, secret=SECRET), log)
            for _ in range(params.N)]
    result = client.retrieve(sims, params, 1, store.side_information(cached), seed=3,
                             scheme=scheme)
    assert np.array_equal(result.message, store.message(1))
    asked = sims[:len(result.transcripts)]
    assert log == ([("send", t, [wire.TYPE_PARAMS, wire.TYPE_QUERY]) for t in asked]
                   + [("receive", t, None) for t in asked for _ in range(2)])


def test_retrieve_starts_no_thread(golden1_store, monkeypatch):
    """A retrieval runs in the caller's thread: no per-retrieval pool."""
    import threading

    def refuse(*args, **kwargs):
        raise AssertionError("retrieve started a thread")

    monkeypatch.setattr(threading, "Thread", refuse)
    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    for store, params, scheme, cached in (
            (golden1_store, SchemeParams(3, 1, 2, 1), "tpir", {3}),
            (sym_store, SchemeParams(3, 0, 3, 1), "stpir", set())):
        sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
        result = client.retrieve(sims, params, 2, store.side_information(cached),
                                 seed=5, scheme=scheme)
        assert np.array_equal(result.message, store.message(2))


def test_params_mismatch_over_tcp_with_the_query_already_sent(golden1_store):
    """A rejected PARAMS still raises "rejected params" although its QUERY
    left with it: a QUERY small enough to be read is answered "QUERY before
    PARAMS", and one refused from its head (the server then closes, perhaps
    while the client still writes) still leaves the PARAMS reply readable.
    The same servers then serve the next connection."""
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    side = golden1_store.side_information({3})
    try:
        # 8-bit symbols asked of a 4-bit store
        tr = tcp_transports(servers)
        with pytest.raises(ProtocolError, match="endpoint 1 rejected params"):
            client.retrieve(tr, SchemeParams(3, 1, 2, 1, w=8), 1, side, seed=6)
        for t in tr:
            t.close()
        bad = wire.params_payload({"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 5,
                                   "m": 1, "t": 1, "w": 4, "message_length": 8})
        for query in (bytes(96), bytes(32 << 20)):
            tr = tcp_transports(servers[:1])
            with pytest.raises(ProtocolError, match="endpoint 1 rejected params"):
                client._run_endpoints(tr, [bad], [query])
            tr[0].close()
        tr = tcp_transports(servers[:1])
        tr[0].send(((wire.TYPE_PARAMS, bad), (wire.TYPE_QUERY, bytes(96))))
        assert tr[0].receive()[0] == wire.TYPE_ERROR
        assert wire.parse_error_payload(tr[0].receive()[1]) == (
            wire.ERR_PROTOCOL, "QUERY before PARAMS")
        tr[0].close()
        tr = tcp_transports(servers)
        result = client.retrieve(tr, SchemeParams(3, 1, 2, 1), 1, side, seed=6)
        for t in tr:
            t.close()
    finally:
        for s in servers:
            s.stop()
    assert np.array_equal(result.message, golden1_store.message(1))


def test_layered_client_refuses_an_answer_form_it_did_not_ask_for(golden1_store):
    """Each answer must come in the form and symbol count its query asked
    for: a layered answer is compressed iff redundancy removal is on and
    M >= 1 (at M = 0 a raw answer relabelled as compressed would otherwise
    decode to a wrong message, and an unknown form byte would be read as
    raw), a symmetric answer is one symbol, a sum answer one message. A
    relabelled form, or one symbol more or less, gets the same error naming
    the endpoint on the layered, symmetric and sum paths."""
    class Editing(client.LocalTransport):
        def __init__(self, core, edit):
            super().__init__(core)
            self.edit = edit

        def receive(self, limit):
            ftype, reply = super().receive(limit)
            if ftype == wire.TYPE_ANSWER:
                reply = self.edit(reply)
            return ftype, reply

    def relabel(form):
        return lambda reply: bytes([form]) + reply[1:]

    def resize(delta):
        def edit(reply):
            f4 = standard_field(4)
            form, symbols = wire.parse_answer(f4, reply)
            symbols = np.resize(symbols, len(symbols) + delta)
            return wire.serialize_answer(f4, form, symbols)
        return edit

    m0_store = random_store(standard_field(4), 3, 8, np.random.default_rng(105))
    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    cases = [(m0_store, SchemeParams(3, 0, 2, 1), "tpir", set(), False, relabel(form))
             for form in (wire.FORM_COMPRESSED, wire.FORM_SYMMETRIC, wire.FORM_SUM, 0x7f)]
    cases += [(golden1_store, SchemeParams(3, 1, 2, 1), "tpir", {3}, False, edit)
              for edit in (relabel(wire.FORM_RAW), relabel(0x7f), resize(1), resize(-1))]
    cases += [(golden1_store, SchemeParams(3, 1, 2, 1), "tpir", {3}, True,
               relabel(wire.FORM_COMPRESSED))]
    for params, cached, others in ((SchemeParams(3, 0, 3, 1), set(), wire.FORM_SUM),
                                   (SchemeParams(3, 2, 3, 1), {2, 3}, wire.FORM_SYMMETRIC)):
        cases += [(sym_store, params, "stpir", cached, False, edit)
                  for edit in (relabel(wire.FORM_RAW), relabel(wire.FORM_COMPRESSED),
                               relabel(others), relabel(0x7f), resize(1), resize(-1))]
    for store, params, scheme, cached, raw, edit in cases:
        sims = [Editing(ServerCore(store, role=scheme, secret=SECRET), edit)
                for _ in range(params.N)]
        with pytest.raises(ProtocolError, match=r"^endpoint 1 sent answer form"):
            client.retrieve(sims, params, 1, store.side_information(cached), seed=2,
                            scheme=scheme, raw=raw)
    # an answer that does not parse is named by its endpoint too
    for edit, why in ((lambda reply: reply[:4], "truncated answer header"),
                      (lambda reply: reply + b"\0", "answer body holds 5 bytes, expected 4")):
        sims = [Editing(ServerCore(m0_store), edit) for _ in range(2)]
        with pytest.raises(ProtocolError, match=f"^endpoint 1 sent a malformed answer: {why}"):
            client.retrieve(sims, SchemeParams(3, 0, 2, 1), 1, {}, seed=2)


def test_sessions_refuse_queries_of_other_schemes(golden1_store, caplog):
    """A session takes the one QUERY shape its PARAMS fixed: a tpir session
    refuses symmetric and sum payloads; a stpir session at M < K - 1 a
    layered and a sum one; a stpir session at M = K - 1 a layered and a
    symmetric one. Each refusal is ERR_MALFORMED_QUERY with no logged
    traceback, and the session stays open for the query it does take.
    PARAMS that fit no protocol (a stpir session at M < K - 1 whose N - T is
    not the store's message length, or whose T is outside 1..N) are refused
    with ERR_STORE_MISMATCH and the reason, and the session takes no QUERY."""
    from sidepir.stpir_psi import make_sym_params, queries_from_masks, sym_masks
    from sidepir.tpir_psi import build_plan, database_queries

    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(107))
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 13)
    layered = wire.serialize_database_query(database_queries(plan, state.pool)[0])
    sym = make_sym_params(SchemeParams(3, 0, 3, 1))
    coords = queries_from_masks(sym, 2, sym_masks(sym, np.random.default_rng(6)))[0]
    symmetric = wire.serialize_sym_query(4, bytes(16), 1, coords)
    tpir_sum = wire.serialize_sum_query(4, 3, 8)
    stpir_sum = wire.serialize_sum_query(4, 3, 2)
    tpir = ServerCore(golden1_store)
    stpir = ServerCore(sym_store, role="stpir", secret=SECRET)
    tpir_fields = {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 3, "m": 1, "t": 1,
                   "w": 4, "message_length": 8}
    stpir_fields = {"scheme": "stpir", "endpoint": 1, "n_db": 3, "k": 3, "m": 0, "t": 1,
                    "w": 4, "message_length": 2}
    cases = [(tpir, tpir_fields, (symmetric, tpir_sum, stpir_sum), layered),
             (stpir, stpir_fields, (layered, stpir_sum), symmetric),
             (stpir, {**stpir_fields, "m": 1}, (layered, stpir_sum), symmetric),
             (stpir, {**stpir_fields, "m": 2, "n_db": 1}, (layered, symmetric), stpir_sum),
             (stpir, {**stpir_fields, "m": 2, "t": 3}, (layered, symmetric), stpir_sum)]
    unfit = [({**stpir_fields, "t": 3}, "(K=3,M=0,N=3,T=3): the symmetric scheme takes "
              "messages of N - T = 0 symbols, not 2"),
             ({**stpir_fields, "t": 4}, "collusion threshold T=4 must satisfy 1 <= T <= N"),
             ({**stpir_fields, "n_db": 1}, "(K=3,M=0,N=1,T=1): the symmetric scheme takes "
              "messages of N - T = 0 symbols, not 2")]
    with caplog.at_level("DEBUG", logger="sidepir.server"):
        for core, fields, refused, taken in cases:
            session = core.new_session()
            ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS,
                                         wire.params_payload(fields))
            assert ftype == wire.TYPE_PARAMS
            for payload in refused:
                ftype, reply = core.handle_frame(session, wire.TYPE_QUERY, payload)
                assert ftype == wire.TYPE_ERROR
                assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY
            assert core.handle_frame(session, wire.TYPE_QUERY, taken)[0] == wire.TYPE_ANSWER
        for fields, reason in unfit:
            session = stpir.new_session()
            ftype, reply = stpir.handle_frame(session, wire.TYPE_PARAMS,
                                              wire.params_payload(fields))
            assert wire.parse_error_payload(reply) == (wire.ERR_STORE_MISMATCH, reason)
            ftype, reply = stpir.handle_frame(session, wire.TYPE_QUERY, stpir_sum)
            assert wire.parse_error_payload(reply)[0] == wire.ERR_PROTOCOL
    assert caplog.records == []


@pytest.mark.parametrize("scheme", ["tpir", "stpir"])
def test_server_and_client_agree_on_every_session_query(scheme):
    """At every desk-grid point (K <= 4, N <= 3) where the client's
    ``session_protocol`` builds a protocol that delivers symbols, a server
    accepts each PARAMS the client sends, runs that protocol's class (at
    stpir with M = K - 1, the sum download), takes exactly the length of
    the client's QUERY and answers it, and the retrieval decodes."""
    from sidepir.stpir_psi import session_protocol

    run = set()
    for params in desk_grid():
        try:
            protocol = session_protocol(scheme, params)
        except PirError:
            continue
        if not protocol.message_length:  # the symmetric scheme at T = N: rate 0
            continue
        store = random_store(protocol.field, params.K, protocol.message_length,
                             np.random.default_rng(params.K))
        side = store.side_information(range(params.K - params.M + 1, params.K + 1))
        sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
        result = client.retrieve(sims, params, 1, side, seed=0, scheme=scheme)
        assert np.array_equal(result.message, store.messages[0])
        core = ServerCore(store, role=scheme, secret=SECRET)
        for t in result.transcripts:
            session = core.new_session()
            assert core.handle_frame(session, wire.TYPE_PARAMS, t.params_sent)[0] == \
                wire.TYPE_PARAMS
            assert session["protocol"] is type(protocol)
            size = len(t.query_sent)
            assert [n for n in (size - 1, size, size + 1)
                    if core.refuse_unread(session, wire.TYPE_QUERY, n) is None] == [size]
            assert core.handle_frame(session, wire.TYPE_QUERY, t.query_sent)[0] == \
                wire.TYPE_ANSWER
        run.add(type(protocol).__name__)
    assert run == ({"LayeredProtocol"} if scheme == "tpir" else
                   {"SymmetricProtocol", "SumProtocol"})


@pytest.fixture(scope="module")
def params_cores(golden1_store):
    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    return {"tpir": ServerCore(golden1_store),
            "stpir": ServerCore(sym_store, role="stpir", secret=SECRET)}


_HUGE = st.integers(-(1 << 70), 1 << 70)


@given(role=st.sampled_from(["tpir", "stpir"]), scheme=st.sampled_from(["tpir", "stpir"]),
       fields=st.fixed_dictionaries({
           "endpoint": st.one_of(st.integers(-1, 5), _HUGE),
           "n_db": st.one_of(st.integers(-1, 5), _HUGE),
           "k": st.one_of(st.just(3), _HUGE),
           "m": st.one_of(st.integers(-1, 3), _HUGE),
           "t": st.one_of(st.integers(-1, 5), _HUGE),
           "w": st.one_of(st.just(4), _HUGE),
           "message_length": st.one_of(st.sampled_from([2, 8]), _HUGE)}))
@example(role="tpir", scheme="tpir", fields={"endpoint": 2, "n_db": 2, "k": 3, "m": 1,
                                             "t": 1, "w": 4, "message_length": 8})
@example(role="stpir", scheme="stpir", fields={"endpoint": 3, "n_db": 3, "k": 3, "m": 0,
                                               "t": 1, "w": 4, "message_length": 2})
@example(role="stpir", scheme="stpir", fields={"endpoint": 1, "n_db": 1, "k": 3, "m": 2,
                                               "t": 1, "w": 4, "message_length": 2})
@example(role="stpir", scheme="stpir", fields={"endpoint": 1, "n_db": 5, "k": 3, "m": 2,
                                               "t": -1, "w": 4, "message_length": 2})
@example(role="stpir", scheme="stpir", fields={"endpoint": 1, "n_db": 5, "k": 3, "m": 2,
                                               "t": 1 << 70, "w": 4, "message_length": 2})
@settings(max_examples=300)
def test_params_get_params_or_a_typed_error(params_cores, role, scheme, fields):
    """Any integer PARAMS fields, out-of-range M, T, N and endpoint among
    them, get PARAMS or a typed ERROR of the client's making (a store
    mismatch or a malformed frame), never ERR_INTERNAL. Accepted PARAMS
    name a point (K, M, N, T) at which the client's ``session_protocol``
    runs the session's protocol, and the session's head check passes
    exactly one QUERY length."""
    from sidepir.stpir_psi import session_protocol

    core = params_cores[role]
    session = core.new_session()
    ftype, reply = core.handle_frame(session, wire.TYPE_PARAMS,
                                     wire.params_payload({"scheme": scheme, **fields}))
    if ftype == wire.TYPE_ERROR:
        assert wire.parse_error_payload(reply)[0] in (wire.ERR_STORE_MISMATCH,
                                                      wire.ERR_MALFORMED_FRAME)
        return
    assert ftype == wire.TYPE_PARAMS
    point = SchemeParams(fields["k"], fields["m"], fields["n_db"], fields["t"], w=fields["w"])
    assert type(session_protocol(role, point)) is session["protocol"]
    assert len([n for n in range(1024)
                if core.refuse_unread(session, wire.TYPE_QUERY, n) is None]) == 1


def test_stpir_server_refuses_a_store_of_one_message(tmp_path, monkeypatch, capsys):
    """No stpir session can be served from a store of one message, so a
    stpir ServerCore refuses it, and `sidepir serve --role stpir` on it
    exits 1 with one error line and no traceback."""
    store = random_store(standard_field(4), 1, 2, np.random.default_rng(110))
    with pytest.raises(ParameterError, match="K >= 2"):
        ServerCore(store, role="stpir", secret=SECRET)
    wire.write_store(tmp_path / "store.pir", store)
    monkeypatch.setenv("SIDEPIR_SECRET", SECRET.hex())
    assert cli_main(["serve", "--role", "stpir", "--port", "0",
                     "--store", str(tmp_path / "store.pir")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_client_rejects_bad_requests_with_typed_errors(golden1_store):
    """A desired index outside 1..K or T = N fails with a PirError before any
    query is sent, on the layered, symmetric and sum paths alike."""
    f4 = standard_field(4)
    sym_store = random_store(f4, 3, 2, np.random.default_rng(102))
    cases = [(golden1_store, SchemeParams(3, 1, 2, 1), "tpir", {3}),
             (sym_store, SchemeParams(3, 0, 3, 1), "stpir", set()),
             (sym_store, SchemeParams(3, 2, 3, 1), "stpir", {2, 3})]
    for store, params, scheme, cached in cases:
        for theta in (0, params.K + 1):
            sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
            with pytest.raises(PirError):
                client.retrieve(sims, params, theta, store.side_information(cached),
                                seed=1, scheme=scheme)
    sims = client.local_simulator(sym_store, 3, role="stpir", secret=SECRET)
    with pytest.raises(ZeroCapacityError):
        client.retrieve(sims, SchemeParams(3, 0, 3, 3), 1, {}, seed=1, scheme="stpir")


@pytest.mark.parametrize("scheme,params,cached,counts", [
    ("tpir", SchemeParams(3, 1, 2, 1), {3}, (0, 1, 3)),
    ("stpir", SchemeParams(3, 0, 3, 1), set(), (0, 2, 4)),
    ("stpir", SchemeParams(3, 2, 3, 1), {2, 3}, (0,)),
], ids=["layered", "symmetric", "sum"])
def test_client_checks_the_endpoint_count_first(golden1_store, monkeypatch,
                                                scheme, params, cached, counts):
    """A wrong number of endpoints is a ParameterError before any scheme
    work: no mixer is drawn and no frame is sent. The sum path needs one."""
    from sidepir import tpir_psi
    from sidepir.errors import ParameterError

    drawn = []
    monkeypatch.setattr(tpir_psi, "sample_full_rank_factored", lambda *a: drawn.append(a))
    store = golden1_store if scheme == "tpir" else random_store(
        standard_field(4), 3, 2, np.random.default_rng(102))
    sent = []

    class Recording(client.LocalTransport):
        def send(self, frames):
            sent.extend(ftype for ftype, _ in frames)
            super().send(frames)

    def endpoints(count):
        return [Recording(ServerCore(store, role=scheme, secret=SECRET))
                for _ in range(count)]

    for count in counts:
        with pytest.raises(ParameterError, match="endpoint"):
            client.retrieve(endpoints(count), params, 1, store.side_information(cached),
                            seed=1, scheme=scheme)
    assert drawn == [] and sent == []

    monkeypatch.undo()
    client.retrieve(endpoints(params.N), params, 1, store.side_information(cached),
                    seed=1, scheme=scheme)
    asked = 1 if scheme == "stpir" and params.M == params.K - 1 else params.N
    assert sent == [wire.TYPE_PARAMS, wire.TYPE_QUERY] * asked


def test_server_checks_layered_query_against_session_params():
    """A layered query must have the slot table of the scheme its PARAMS
    frame named, and PARAMS that name no layered scheme are refused. A
    crafted query with p1 = 300 would make the server build and invert a
    300 x 300 compression code; it is refused first."""
    import dataclasses
    import time

    from sidepir.coding import make_systematic_mds
    from sidepir.tpir_psi import DatabaseQuery, LayeredShape, build_plan, database_queries

    params = SchemeParams(6, 2, 2, 1, w=16)
    store = random_store(standard_field(16), 6, 64, np.random.default_rng(103))
    core = ServerCore(store)

    def session_frame(endpoint, **overrides):
        fields = {"scheme": "tpir", "endpoint": endpoint, "n_db": 2, "k": 6, "m": 2,
                  "t": 1, "w": 16, "message_length": 64, **overrides}
        session = core.new_session()
        ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(fields))
        assert ftype == wire.TYPE_PARAMS
        return session

    crafted = DatabaseQuery(shape=LayeredShape(16, 6, 64, ((1,),) * 300, 1), compress=True,
                            rows=np.zeros((300, 64), dtype=np.uint16))
    payload = wire.serialize_database_query(crafted)
    cached = make_systematic_mds.cache_info().currsize
    start = time.perf_counter()
    ftype, reply = core.handle_frame(session_frame(1), wire.TYPE_QUERY, payload)
    assert time.perf_counter() - start < 0.1
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY
    assert make_systematic_mds.cache_info().currsize == cached

    plan, state = build_plan(params, 3, 5)
    queries = database_queries(plan, state.pool)
    # right counts, wrong slot table; and a genuine query under other params
    shape = queries[0].shape
    shuffled = dataclasses.replace(queries[0], shape=dataclasses.replace(
        shape, slot_members=shape.slot_members[::-1]))
    for session, query in ((session_frame(1), shuffled),
                           (session_frame(1, m=1), queries[0])):
        ftype, reply = core.handle_frame(session, wire.TYPE_QUERY,
                                         wire.serialize_database_query(query))
        assert ftype == wire.TYPE_ERROR
        assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY
    # T = N with M < K - 1 is no layered scheme: refused at PARAMS
    ftype, reply = core.handle_frame(core.new_session(), wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": 2, "k": 6, "m": 2, "t": 2, "w": 16,
         "message_length": 64}))
    assert wire.parse_error_payload(reply) == (
        wire.ERR_STORE_MISMATCH,
        "(K=6,M=2,N=2,T=2): the layered scheme needs T < N (or M = K-1)")

    # genuine compressed and raw queries are still answered
    for raw in (False, True):
        for endpoint, q in enumerate(queries, 1):
            q = dataclasses.replace(q, compress=not raw)
            ftype, reply = core.handle_frame(session_frame(endpoint), wire.TYPE_QUERY,
                                             wire.serialize_database_query(q))
            assert ftype == wire.TYPE_ANSWER
            form, symbols = wire.parse_answer(standard_field(16), reply)
            assert form == (wire.FORM_RAW if raw else wire.FORM_COMPRESSED)
            assert len(symbols) == plan.profile.p1 - (0 if raw else plan.profile.p2)


def _sym_session(core, **overrides):
    fields = {"scheme": "stpir", "endpoint": 1, "n_db": 3, "k": 3, "m": 0, "t": 1,
              "w": 4, "message_length": 2, **overrides}
    session = core.new_session()
    ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(fields))
    assert ftype == wire.TYPE_PARAMS
    return session


def test_symmetric_server_refuses_points_outside_the_field(caplog):
    """The evaluation points 1..N must be nonzero elements of GF(2^w): PARAMS
    with N of q or more are refused (ERR_STORE_MISMATCH) without a logged
    traceback, while the largest field point is still answered."""
    from sidepir.stpir_psi import make_sym_params, queries_from_masks, sym_masks

    store = random_store(standard_field(4), 3, 2, np.random.default_rng(104))
    core = ServerCore(store, role="stpir", secret=SECRET)
    sym = make_sym_params(SchemeParams(3, 0, 3, 1))
    query = queries_from_masks(sym, 2, sym_masks(sym, np.random.default_rng(5)))[0]
    payload = wire.serialize_sym_query(4, bytes(16), 13, query)
    with caplog.at_level("DEBUG", logger="sidepir.server"):
        ftype, reply = core.handle_frame(core.new_session(), wire.TYPE_PARAMS,
                                         wire.params_payload(
            {"scheme": "stpir", "endpoint": 16, "n_db": 16, "k": 3, "m": 0, "t": 14,
             "w": 4, "message_length": 2}))
    assert wire.parse_error_payload(reply) == (
        wire.ERR_STORE_MISMATCH, "width 4 gives only 16 evaluation points for N=16")
    assert caplog.records == []
    ftype, _ = core.handle_frame(_sym_session(core, endpoint=15, n_db=15, t=13),
                                 wire.TYPE_QUERY, payload)
    assert ftype == wire.TYPE_ANSWER


def test_server_checks_symmetric_query_against_session():
    """A symmetric query is answered only when its (K, N - T) coordinates
    fit the store and its T is the one its PARAMS frame declared."""
    from sidepir.stpir_psi import make_sym_params, queries_from_masks, sym_masks

    f4 = standard_field(4)
    store = random_store(f4, 3, 2, np.random.default_rng(104))
    core = ServerCore(store, role="stpir", secret=SECRET)
    sym = make_sym_params(SchemeParams(3, 0, 3, 1))
    query = queries_from_masks(sym, 2, sym_masks(sym, np.random.default_rng(5)))[0]

    def ask(coords, t=1):
        payload = wire.serialize_sym_query(4, bytes(16), t, coords)
        return core.handle_frame(_sym_session(core), wire.TYPE_QUERY, payload)

    assert ask(query)[0] == wire.TYPE_ANSWER
    for reply in (ask(query[:2]), ask(np.zeros((4, 2), dtype=f4.dtype)),
                  ask(query[:, :1]), ask(query, t=2)):
        ftype, payload = reply
        assert ftype == wire.TYPE_ERROR
        assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY


def test_symmetric_server_evaluates_a_large_threshold_in_one_pass():
    """T is the client's to declare, up to q - 2. The server takes its PARAMS
    without building a table sized by N (under 1 MiB at its peak, where the
    N x N point powers would take gigabytes), evaluates the shared mask at
    its point in one vectorised pass, not one Python step per coefficient,
    and the answer still equals the Horner evaluation."""
    import time
    import tracemalloc

    from sidepir.stpir_psi import derive_common_randomness

    f16 = standard_field(16)
    store = random_store(f16, 2, 1, np.random.default_rng(105))
    core = ServerCore(store, role="stpir", secret=SECRET)
    t, point = 65534, 65535
    tracemalloc.start()
    try:
        session = _sym_session(core, endpoint=point, n_db=point, t=t, k=2, w=16,
                               message_length=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    coords = np.array([[3], [7]], dtype=f16.dtype)
    start = time.perf_counter()
    ftype, reply = core.handle_frame(session, wire.TYPE_QUERY,
                                     wire.serialize_sym_query(16, bytes(16), t, coords))
    assert time.perf_counter() - start < 0.1
    assert ftype == wire.TYPE_ANSWER
    horner = 0
    for coeff in reversed(derive_common_randomness(SECRET, bytes(16), t, f16).tolist()):
        horner = f16.mul(horner, point) ^ coeff
    inner = f16.mul(3, int(store.messages[0, 0])) ^ f16.mul(7, int(store.messages[1, 0]))
    assert wire.parse_answer(f16, reply)[1].tolist() == [inner ^ horner]


def test_servers_refuse_a_nonzero_padding_nibble():
    """At w = 4 an odd count of symbols leaves the high nibble of a byte
    unused; a QUERY that sets it is refused as malformed, not parsed to the
    same query as the honest payload. The honest payloads are answered."""
    from sidepir.tpir_psi import build_plan, database_queries

    f4 = standard_field(4)
    sym_store = random_store(f4, 3, 1, np.random.default_rng(104))
    sym_core = ServerCore(sym_store, role="stpir", secret=SECRET)
    coords = f4.random_symbols(np.random.default_rng(105), (3, 1))
    sym = wire.serialize_sym_query(4, bytes(16), 1, coords)
    sym_session = _sym_session(sym_core, n_db=2, message_length=1)

    params = SchemeParams(2, 1, 3, 1, w=4)  # L = 9 symbols a row
    layered_store = random_store(f4, 2, 9, np.random.default_rng(106))
    layered_core = ServerCore(layered_store)
    plan, state = build_plan(params, 2, 9)
    layered = wire.serialize_database_query(database_queries(plan, state.pool)[0])
    layered_session = layered_core.new_session()
    layered_core.handle_frame(layered_session, wire.TYPE_PARAMS, wire.params_payload(
        {"scheme": "tpir", "endpoint": 1, "n_db": 3, "k": 2, "m": 1, "t": 1, "w": 4,
         "message_length": 9}))

    for core, session, honest, name in ((sym_core, sym_session, sym, "symmetric"),
                                        (layered_core, layered_session, layered, "layered")):
        assert honest[-1] >> 4 == 0
        padded = honest[:-1] + bytes([honest[-1] | 0x50])
        ftype, reply = core.handle_frame(session, wire.TYPE_QUERY, padded)
        assert ftype == wire.TYPE_ERROR
        assert wire.parse_error_payload(reply) == (
            wire.ERR_MALFORMED_QUERY, f"{name} query has a nonzero padding nibble")
        assert core.handle_frame(session, wire.TYPE_QUERY, honest)[0] == wire.TYPE_ANSWER


def test_client_refuses_a_nonzero_padding_nibble_in_an_answer():
    """A stpir answer at w = 4 is one symbol, and the high nibble of its byte
    is padding: an endpoint that sets it sent a malformed answer."""
    store = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    core = ServerCore(store, role="stpir", secret=SECRET)

    class Padding(client.LocalTransport):
        def receive(self, limit=wire.MAX_PAYLOAD):
            ftype, payload = super().receive(limit)
            if ftype == wire.TYPE_ANSWER:
                payload = payload[:-1] + bytes([payload[-1] | 0xF0])
            return ftype, payload

    transports = [Padding(core)] + [client.LocalTransport(core) for _ in range(2)]
    with pytest.raises(ProtocolError, match="^endpoint 1 sent a malformed answer: answer "
                                            "has a nonzero padding nibble$"):
        client.retrieve(transports, SchemeParams(3, 0, 3, 1), 1, {}, seed=1, scheme="stpir")


def test_client_refuses_raw_answers_of_the_stpir_scheme():
    """Only layered answers have a raw form: an stpir retrieval asked for raw
    answers is a ParameterError before any frame is sent, on the symmetric
    and the sum path alike."""
    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(102))
    sent = []

    class Recording(client.LocalTransport):
        def send(self, frames):
            sent.extend(frames)
            super().send(frames)

    for params, cached in ((SchemeParams(3, 0, 3, 1), set()),
                           (SchemeParams(3, 2, 3, 1), {2, 3})):
        sims = [Recording(ServerCore(sym_store, role="stpir", secret=SECRET))
                for _ in range(params.N)]
        with pytest.raises(ParameterError, match="raw"):
            client.retrieve(sims, params, 1, sym_store.side_information(cached), seed=1,
                            scheme="stpir", raw=True)
    assert sent == []


def _hostile_endpoint(reply: bytes, connections: int = 1, reset: bool = False):
    """A listener that reads each connection's PARAMS and QUERY frames, then
    writes ``reply`` and closes it, with a reset if ``reset`` (SO_LINGER 0).
    Returns its port and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            for _ in range(connections):
                conn, _ = listener.accept()
                try:
                    with conn, conn.makefile("rb") as stream:
                        wire.read_frame(stream)
                        wire.read_frame(stream)
                        conn.sendall(reply)
                        if reset:
                            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                            struct.pack("ii", 1, 0))
                except OSError:  # the client refused and closed first
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_client_refuses_an_oversized_reply_from_its_head(golden1_store):
    """A reply longer than its step allows is refused from its head, before
    its body is read: a head that declares 128 MiB and then ends raises the
    size refusal naming the endpoint, not an end of stream. A PARAMS reply
    may hold MAX_SESSIONLESS_FRAME bytes, a QUERY reply no more than that
    or the answer head and its count of symbols."""
    huge = 128 << 20
    params_reply = wire.encode_frame(wire.TYPE_PARAMS, wire.params_payload({"ok": True}))
    for step, ftype, before in (("params", wire.TYPE_PARAMS, b""),
                                ("query", wire.TYPE_ANSWER, params_reply)):
        port, thread = _hostile_endpoint(before + wire.frame_head(ftype, huge), 2)
        transports = [client.TcpTransport("127.0.0.1", port) for _ in range(2)]
        try:
            with pytest.raises(ProtocolError) as err:
                client.retrieve(transports, SchemeParams(3, 1, 2, 1), 1,
                                golden1_store.side_information({3}), seed=5)
        finally:
            for t in transports:
                t.close()
        thread.join(5)
        assert not thread.is_alive()
        # this answer's head and count are 8 bytes: the sessionless bound holds
        assert str(err.value) == (f"endpoint 1 replied to {step}: frame of type {ftype:#x} "
                                  f"declares {huge} bytes, over the {MAX_SESSIONLESS_FRAME} "
                                  f"this step takes")


def test_a_reset_connection_is_a_typed_error(golden1_store):
    """An endpoint that reads the frames and then resets the connection gives
    a ProtocolError naming the endpoint and the step, chained to the reset,
    not a bare ConnectionResetError."""
    port, thread = _hostile_endpoint(b"", 2, reset=True)
    transports = [client.TcpTransport("127.0.0.1", port) for _ in range(2)]
    try:
        with pytest.raises(ProtocolError, match="^endpoint 1 replied to params: ") as err:
            client.retrieve(transports, SchemeParams(3, 1, 2, 1), 1,
                            golden1_store.side_information({3}), seed=5)
    finally:
        for t in transports:
            t.close()
    thread.join(5)
    assert not thread.is_alive()
    assert isinstance(err.value.__cause__, ConnectionResetError)


def test_a_client_reset_mid_frame_ends_its_session_quietly(golden1_store, caplog):
    """A client that declares a 100-byte PARAMS, sends one byte of it and
    resets the connection ends its session: the server reports no error,
    and a retrieval that follows on the same server is answered."""
    server = DatabaseServer(golden1_store).start()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=3)
        sock.sendall(wire.frame_head(wire.TYPE_PARAMS, 100) + b"{")
        time.sleep(0.1)  # accepted, and its handler waits for the rest
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        transports = tcp_transports([server, server])
        try:
            result = client.retrieve(transports, SchemeParams(3, 1, 2, 1), 1,
                                     golden1_store.side_information({3}), seed=5)
        finally:
            for t in transports:
                t.close()
    finally:
        server.stop()
    errors = [r for r in caplog.records if r.name == "sidepir.server"]
    assert errors == []
    assert np.array_equal(result.message, golden1_store.message(1))


def test_an_answer_is_bounded_by_its_head_and_count():
    """A QUERY reply may hold the larger of MAX_SESSIONLESS_FRAME and the
    answer head with its count of symbols: one byte more is refused."""
    f16 = standard_field(16)
    limit = wire.answer_size(f16, 4096)
    assert limit == 5 + 2 * 4096 > MAX_SESSIONLESS_FRAME

    class Answering(ServerCore):
        def __init__(self, size):
            self.size = size

        def handle_frame(self, session, ftype, payload):
            return (wire.TYPE_PARAMS, b"{}") if ftype == wire.TYPE_PARAMS else (
                wire.TYPE_ANSWER, bytes(self.size))

    got = client._run_endpoints([client.LocalTransport(Answering(limit))], [b"{}"], [b"q"],
                                limit)
    assert len(got[0].answer_received) == limit
    with pytest.raises(ProtocolError, match=f"^endpoint 1 replied to query: .* declares "
                                            f"{limit + 1} bytes, over the {limit}"):
        client._run_endpoints([client.LocalTransport(Answering(limit + 1))], [b"{}"], [b"q"],
                              limit)

    class Mistyped(Answering):
        def handle_frame(self, session, ftype, payload):
            return wire.TYPE_ANSWER, bytes(self.size)

    with pytest.raises(ProtocolError, match="^endpoint 1 answered params with type 0x2$"):
        client._run_endpoints([client.LocalTransport(Mistyped(5))], [b"{}"], [b"q"])


def test_local_and_tcp_transports_refuse_an_oversized_reply_alike():
    """The in-process simulator bounds each reply as a TCP connection does,
    with the same error."""
    payload = bytes(MAX_SESSIONLESS_FRAME + 1)

    class Verbose(ServerCore):
        def __init__(self):
            pass

        def handle_frame(self, session, ftype, body):
            return wire.TYPE_PARAMS, payload

    port, thread = _hostile_endpoint(wire.encode_frame(wire.TYPE_PARAMS, payload))
    errors = []
    for transport in (client.TcpTransport("127.0.0.1", port), client.LocalTransport(Verbose())):
        try:
            with pytest.raises(ProtocolError) as err:
                client._run_endpoints([transport], [b"{}"], [b"q"])
        finally:
            transport.close()
        errors.append(str(err.value))
    thread.join(5)
    assert not thread.is_alive()
    assert errors == [f"endpoint 1 replied to params: frame of type 0x4 declares "
                      f"{MAX_SESSIONLESS_FRAME + 1} bytes, over the "
                      f"{MAX_SESSIONLESS_FRAME} this step takes"] * 2
