"""Server/client over TCP and in process, plus the command-line interface."""

import hashlib
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from sidepir import client, wire
from sidepir.capacity import SchemeParams
from sidepir.cli import main as cli_main
from sidepir.errors import CorruptionError, PirError, ProtocolError, ZeroCapacityError
from sidepir.field import standard_field
from sidepir.server import DatabaseServer, ServerCore
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
    # malformed query -> 0x02, session still open
    ftype, payload = core.handle_frame(session, wire.TYPE_QUERY, b"\x01trunc")
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_MALFORMED_QUERY


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
    q = database_queries(plan, state)[0]
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
    query_frame = wire.serialize_database_query(database_queries(plan, state)[0])

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
    bad = wire.params_payload({"scheme": "tpir", "endpoint": 1, "n_db": 2,
                               "k": 5, "m": 1, "t": 1, "w": 4,
                               "message_length": 8})
    ftype, payload = core.handle_frame(core.new_session(), wire.TYPE_PARAMS, bad)
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(payload)[0] == wire.ERR_STORE_MISMATCH


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
    original = server_mod._Handler.handle

    def handle(self):
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return original(self)

    monkeypatch.setattr(server_mod._Handler, "handle", handle)
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
    """The threads that ran a connection's handler, per server."""
    from sidepir import server as server_mod

    threads = {}
    original = server_mod._Handler.handle

    def handle(self):
        threads.setdefault(self.server, set()).add(threading.current_thread())
        return original(self)

    monkeypatch.setattr(server_mod._Handler, "handle", handle)
    return threads


def test_sequential_retrievals_reuse_one_handler_thread(golden1_store, handler_threads):
    """A connection that ends hands its thread to the next one: twenty
    sequential retrievals start one handler thread per server, not twenty."""
    side = golden1_store.side_information({3})
    servers = [DatabaseServer(golden1_store).start() for _ in range(2)]
    try:
        for seed in range(20):
            tr = tcp_transports(servers)
            result = client.retrieve(tr, SchemeParams(3, 1, 2, 1), 1, side, seed=seed)
            assert np.array_equal(result.message, golden1_store.message(1))
            for t in tr:
                _hang_up(t)
    finally:
        for s in servers:
            s.stop()
    assert sorted(len(seen) for seen in handler_threads.values()) == [1, 1]


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
    (none waits behind another's thread), and the server never holds more
    handler threads than it had connections open at once."""
    clients, errors = 8, []
    barrier = threading.Barrier(clients, timeout=10)
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
    finally:
        sys.setswitchinterval(switch)
        server.stop()
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert [len(seen) <= clients for seen in handler_threads.values()] == [True]


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
        # far longer than the accept loop's STOP_POLL (0.02 s), which stop() also waits for
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
    """stop() on an idle server, fresh or with an idle handler thread left by
    a finished connection, returns well within the accept loop's default
    half-second poll."""
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
    PARAMS on that session gets a protocol ERROR, not a second ANSWER."""
    store = golden1_store if scheme == "tpir" else random_store(
        standard_field(4), 3, 2, np.random.default_rng(102))
    sims = client.local_simulator(store, params.N, role=scheme, secret=SECRET)
    result = client.retrieve(sims, params, 1, store.side_information(cached), seed=3,
                             scheme=scheme)
    for sim, t in zip(sims, result.transcripts):
        sim.send([(wire.TYPE_QUERY, t.query_sent), (wire.TYPE_PARAMS, t.params_sent)])
        for _ in range(2):
            ftype, payload = sim.receive()
            assert ftype == wire.TYPE_ERROR
            assert wire.parse_error_payload(payload) == (
                wire.ERR_PROTOCOL, "the session has answered its QUERY")


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
    listener = server._server.socket
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
    bounded: 1,000 PARAMS with distinct (M, T) each get a typed reply, and
    sessions at 117 distinct (endpoint, T) are each answered, while neither
    the QUERY-shape cache nor the point-power cache grows past its bound."""
    from sidepir import server as server_mod

    f4 = standard_field(4)
    sym_store = random_store(f4, 3, 2, np.random.default_rng(102))
    cores = [ServerCore(golden1_store), ServerCore(sym_store, role="stpir", secret=SECRET)]
    for core in cores:
        length = core.store.message_length
        for i in range(1000):
            fields = {"scheme": core.role, "endpoint": 1, "n_db": 2, "k": 3, "m": i // 25,
                      "t": i % 25 + 1, "w": 4, "message_length": length}
            session = core.new_session()
            ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS, wire.params_payload(fields))
            assert ftype == wire.TYPE_PARAMS
            error = core.refuse_unread(session, wire.TYPE_QUERY, 1 << 20)
            assert wire.parse_error_payload(error)[0] == wire.ERR_MALFORMED_QUERY
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
    for cache in (server_mod._session_layouts, server_mod._endpoint_powers):
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
# blocks, which consumes the random stream differently
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
            "224fcb760bdb546131de66657ee9ba4f6115843564f667721b61170d1d6ff893"),
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
    try:
        endpoints = ",".join(f"127.0.0.1:{s.port}" for s in servers)
        code = cli_main(["retrieve", "--endpoints", endpoints, "--K", "3",
                         "--M", "1", "--N", "2", "--T", "1", "--theta", "1",
                         "--S", "3", "--side-file", str(side_path),
                         "--seed", "42", "--out", str(out_path)])
    finally:
        for s in servers:
            s.stop()
    assert code == 0
    out = capsys.readouterr().out
    assert "rate 2/3 matches capacity 2/3" in out
    field = standard_field(4)
    assert out_path.read_bytes() == field.pack(store.message(1))


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
], ids=["rho", "grid-not-rate", "empty-grid", "bad-grid", "side-out", "bad-side",
        "bad-cached-set", "zero-sessions", "negative-sessions", "db-privacy-sessions",
        "rate-sessions", "non-hex-secret"])
def test_cli_usage_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, argv):
    # read only by the commands that use a secret: here, serve
    monkeypatch.setenv("SIDEPIR_SECRET", "zz")
    with pytest.raises(SystemExit) as err:
        cli_main([arg.format(tmp=tmp_path) for arg in argv])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


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

    def receive(self):
        self.log.append(("receive", self, None))
        return super().receive()


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

        def receive(self):
            ftype, reply = super().receive()
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


def test_sessions_refuse_queries_of_other_schemes(golden1_store, caplog):
    """A session takes only the QUERY shapes its PARAMS fixed: a tpir session
    refuses symmetric and sum payloads, a stpir session a layered one, and a
    stpir session with T >= N a symmetric one while it still answers the sum
    query. Each refusal is ERR_MALFORMED_QUERY with no logged traceback, and
    the session stays open for the query it does take."""
    from sidepir.stpir_psi import make_sym_params, queries_from_masks, sym_masks
    from sidepir.tpir_psi import build_plan, database_queries

    sym_store = random_store(standard_field(4), 3, 2, np.random.default_rng(107))
    plan, state = build_plan(SchemeParams(3, 1, 2, 1), 1, 13)
    layered = wire.serialize_database_query(database_queries(plan, state)[0])
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
             (stpir, stpir_fields, (layered,), symmetric),
             (stpir, stpir_fields, (layered,), stpir_sum),
             (stpir, {**stpir_fields, "t": 3}, (symmetric,), stpir_sum),
             (stpir, {**stpir_fields, "t": 4}, (symmetric,), stpir_sum),
             (stpir, {**stpir_fields, "n_db": 1, "t": 1}, (symmetric,), stpir_sum)]
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
    assert caplog.records == []


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
    monkeypatch.setattr(tpir_psi, "sample_mixers", lambda *a: drawn.append(a))
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
    frame named. A crafted query with p1 = 300 would make the server build
    and invert a 300 x 300 compression code; it is refused first."""
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

    crafted = DatabaseQuery(shape=LayeredShape(16, 6, 64, ((1,),) * 300, 1), db_index=0,
                            compress=True, rows=np.zeros((300, 64), dtype=np.uint16))
    payload = wire.serialize_database_query(crafted)
    cached = make_systematic_mds.cache_info().currsize
    start = time.perf_counter()
    ftype, reply = core.handle_frame(session_frame(1), wire.TYPE_QUERY, payload)
    assert time.perf_counter() - start < 0.1
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY
    assert make_systematic_mds.cache_info().currsize == cached

    plan, state = build_plan(params, 3, 5)
    queries = database_queries(plan, state)
    # right counts, wrong slot table; and a genuine query under other params
    shape = queries[0].shape
    shuffled = dataclasses.replace(queries[0], shape=dataclasses.replace(
        shape, slot_members=shape.slot_members[::-1]))
    for session, query in ((session_frame(1), shuffled),
                           (session_frame(1, m=1), queries[0]),
                           (session_frame(1, t=2), queries[0])):
        ftype, reply = core.handle_frame(session, wire.TYPE_QUERY,
                                         wire.serialize_database_query(query))
        assert ftype == wire.TYPE_ERROR
        assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY

    # genuine compressed and raw queries are still answered
    for raw in (False, True):
        for q in queries:
            q = dataclasses.replace(q, compress=not raw)
            ftype, reply = core.handle_frame(session_frame(q.db_index + 1), wire.TYPE_QUERY,
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
    """The evaluation points 1..N must be nonzero elements of GF(2^w): an
    endpoint of q or more is a malformed session, refused without a logged
    traceback, while the largest field point is still answered."""
    from sidepir.stpir_psi import make_sym_params, queries_from_masks, sym_masks

    store = random_store(standard_field(4), 3, 2, np.random.default_rng(104))
    core = ServerCore(store, role="stpir", secret=SECRET)
    sym = make_sym_params(SchemeParams(3, 0, 3, 1))
    query = queries_from_masks(sym, 2, sym_masks(sym, np.random.default_rng(5)))[0]
    payload = wire.serialize_sym_query(4, bytes(16), 1, query)
    with caplog.at_level("DEBUG", logger="sidepir.server"):
        ftype, reply = core.handle_frame(_sym_session(core, endpoint=16, n_db=16),
                                         wire.TYPE_QUERY, payload)
    assert ftype == wire.TYPE_ERROR
    assert wire.parse_error_payload(reply)[0] == wire.ERR_MALFORMED_QUERY
    assert caplog.records == []
    ftype, _ = core.handle_frame(_sym_session(core, endpoint=15, n_db=15),
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
    """T is the client's to declare, up to q - 2. The server evaluates the
    shared mask at its point in one vectorised pass, not one Python step per
    coefficient, and the answer still equals the Horner evaluation."""
    import time

    from sidepir.stpir_psi import derive_common_randomness

    f16 = standard_field(16)
    store = random_store(f16, 2, 1, np.random.default_rng(105))
    core = ServerCore(store, role="stpir", secret=SECRET)
    t, point = 65534, 65535
    session = _sym_session(core, endpoint=point, n_db=point, t=t, k=2, w=16,
                           message_length=1)
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
    layered = wire.serialize_database_query(database_queries(plan, state)[0])
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
