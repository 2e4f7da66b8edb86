"""Database server: a replicated store behind the framed TCP protocol.

The protocol logic lives in :class:`ServerCore`, which maps one inbound
frame to one reply frame given per-connection session state. It holds no
scheme code: each QUERY is answered by its session's protocol class
(``answer_query``). A TCP connection and the client's in-process simulator
both run its one session loop, :meth:`ServerCore.serve`, so they give the
same replies and ends. :class:`DatabaseServer` is the TCP listener.

Sessions are one QUERY each: a connection first announces itself with a
PARAMS frame, naming the session's point (K, M, N, T), ``n_db`` its N for
every scheme, and its assigned endpoint index, which the symmetric scheme
needs for its evaluation point; then it sends the QUERY. PARAMS fixes the
one protocol the session runs, the one the client's
:func:`~sidepir.stpir_psi.session_protocol` builds at that point. PARAMS at
a point it refuses, or whose protocol takes messages of another length
than the store's, are refused. A QUERY is sized from its session's shape
before its body is read, and must match it in every byte but its own. A
client may send both frames back to back: they are answered in order, one
reply each. Once a QUERY is answered the session is over: the core refuses
any further frame, and the session loop ends at that ANSWER, as at a head
it refuses or a failed read (a session whose frames got only ERROR replies
stays open). Any frame before PARAMS, and any frame but the QUERY after it,
is bounded by :data:`MAX_SESSIONLESS_FRAME`.

Servers keep no state across sessions beyond the store, the shared secret
and what depends only on public values: the PARAMS reply, built once from
the store, and the bounded caches of each (M, N, T)'s QUERY shape and (in
``stpir_psi``) each endpoint's point powers.

The listening socket defers each accept until the connection's first bytes
arrive (``TCP_DEFER_ACCEPT``, where the platform has it), so a session wakes
the server once, with its PARAMS and QUERY, not also at the handshake; its
backlog is ``SOMAXCONN``, so a burst of connects is not dropped (a dropped
SYN costs its client a one-second retransmit).

Each open connection is served by a thread of its own, with no cap: the
worker thread that accepts a connection serves it, and starts a follower
first if no other worker is idle. The threads are reused: one whose
connection has ended accepts the next, and a server keeps its idle threads
until it stops. Stopping a server wakes its idle workers at once, waits
for the sessions in flight and ends every thread; a connection still open
:data:`CLOSE_GRACE` seconds later (its client does not read its answer,
say) is cut.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import socket
import threading
import time
from functools import lru_cache
from types import SimpleNamespace

from . import wire
from .capacity import SchemeParams
from .errors import ParameterError, PirError, ProtocolError
from .store import MessageStore
from .stpir_psi import session_protocol

# a PARAMS payload is at most 216 bytes even with all seven integers at u64
# width; no frame but a session's QUERY may declare more than this
MAX_SESSIONLESS_FRAME = 4096
# how long closing a server waits for its open connections to end before
# it shuts them both ways
CLOSE_GRACE = 2.0
# seconds a connection may stay silent after its handshake before it is
# accepted anyway (TCP_DEFER_ACCEPT)
DEFER_ACCEPT = 1
_INT_FIELDS = ("endpoint", "n_db", "k", "m", "t", "w", "message_length")

log = logging.getLogger(__name__)


class ServerCore:
    """Frame-level protocol logic for one database."""

    def __init__(self, store: MessageStore, role: str = "tpir",
                 secret: bytes | None = None):
        if role not in ("tpir", "stpir"):
            raise ParameterError("role must be 'tpir' or 'stpir'")
        if role == "stpir" and not secret:
            raise ParameterError("the symmetric role needs a shared secret")
        if role == "stpir" and store.num_messages < 2:
            raise ParameterError("the stpir scheme is defined for K >= 2 messages")
        self.store = store
        self.role = role
        self.secret = secret
        self.store_digest = hashlib.sha256(wire.store_bytes(store)).hexdigest()
        # depends only on the store: built once, not per session
        self._params_reply = wire.params_payload({
            "ok": True,
            "store_digest": self.store_digest,
            "k": store.num_messages,
            "message_length": store.message_length,
            "w": store.field.w,
        })

    def new_session(self) -> dict:
        return {}

    def handle_frame(self, session: dict, ftype: int, payload: bytes) -> tuple[int, bytes]:
        if "answered" in session:
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_PROTOCOL, "the session has answered its QUERY")
        try:
            if ftype == wire.TYPE_PARAMS:
                return self._handle_params(session, payload)
            if ftype == wire.TYPE_QUERY:
                reply = self._handle_query(session, payload)
                if reply[0] == wire.TYPE_ANSWER:
                    session["answered"] = True
                return reply
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_PROTOCOL, f"unexpected frame type {ftype:#x}")
        except ProtocolError as exc:
            return wire.TYPE_ERROR, wire.error_payload(wire.ERR_MALFORMED_FRAME, str(exc))
        except PirError as exc:
            return wire.TYPE_ERROR, wire.error_payload(wire.ERR_INTERNAL, str(exc))
        except Exception as exc:
            # fail closed: a numpy error or MemoryError still gets a typed
            # reply instead of dropping the connection
            log.exception("internal error while handling frame type %#x", ftype)
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_INTERNAL, f"internal error: {type(exc).__name__}")

    def serve(self, rfile, wfile, session: dict) -> bool:
        """Answer a stream of frames in order until ``session`` ends (True: at
        its ANSWER, a head refused unread, or a failed read or write) or the
        stream does."""
        while True:
            try:
                head = wire.read_frame_head(rfile)
                if head is None:
                    return False
                error = self.refuse_unread(session, *head)
                body = None if error else wire.read_exact(rfile, head[1])
            except ProtocolError as exc:
                error = wire.error_payload(wire.ERR_MALFORMED_FRAME, str(exc))
            except OSError:  # a reset or a timeout: the client is gone
                return True
            reply = (wire.TYPE_ERROR, error) if error else self.handle_frame(
                session, head[0], body)
            try:
                wfile.write(wire.encode_frame(*reply))
            except OSError:
                return True
            if error or reply[0] == wire.TYPE_ANSWER:
                return True

    def _handle_params(self, session: dict, payload: bytes) -> tuple[int, bytes]:
        req = wire.parse_params_payload(payload)
        # type, not isinstance: a JSON true must not pass as the integer 1
        loose = [name for name in _INT_FIELDS if type(req.get(name)) is not int]
        if loose:
            raise ProtocolError(f"params fields {', '.join(loose)} must be integers")
        problems = []
        if req.get("scheme") != self.role:
            problems.append(f"server role is {self.role!r}, client wants {req.get('scheme')!r}")
        if req["k"] != self.store.num_messages:
            problems.append(f"store holds {self.store.num_messages} messages")
        if req["message_length"] != self.store.message_length:
            problems.append(f"store messages have length {self.store.message_length}")
        if req["w"] != self.store.field.w:
            problems.append(f"store symbols are {self.store.field.w}-bit")
        endpoint, n_db = req["endpoint"], req["n_db"]
        if not 1 <= endpoint <= n_db:
            problems.append(f"bad endpoint assignment {endpoint}/{n_db}")
        if not problems:
            try:
                query = _session_query(self.role, self.store.field.w, self.store.num_messages,
                                       self.store.message_length, req["m"], n_db, req["t"])
            except PirError as exc:
                problems.append(str(exc))
        if problems:
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_STORE_MISMATCH, "; ".join(problems))
        session["endpoint"] = endpoint
        session["protocol"], session["shape"], session["size"] = query
        return wire.TYPE_PARAMS, self._params_reply

    def _handle_query(self, session: dict, payload: bytes) -> tuple[int, bytes]:
        if "endpoint" not in session:
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_PROTOCOL, "QUERY before PARAMS")
        try:
            query = wire.parse_query_payload(payload, session["shape"])
        except ProtocolError as exc:
            return wire.TYPE_ERROR, wire.error_payload(wire.ERR_MALFORMED_QUERY, str(exc))
        form, symbols = session["protocol"].answer_query(
            query, self.store, session["endpoint"], self.secret)
        return wire.TYPE_ANSWER, wire.serialize_answer(self.store.field, form, symbols)

    def refuse_unread(self, session: dict, ftype: int, length: int) -> bytes | None:
        """An ERROR payload for a frame refused from its head alone, before its
        body is read: a QUERY after PARAMS that declares another length than
        its session's, or any other frame longer than MAX_SESSIONLESS_FRAME.
        None for a frame that is to be read."""
        if ftype != wire.TYPE_QUERY or "endpoint" not in session:
            if length <= MAX_SESSIONLESS_FRAME:
                return None
            return wire.error_payload(
                wire.ERR_MALFORMED_FRAME, f"frame of type {ftype:#x} declares {length} "
                f"bytes; before a session's QUERY the limit is {MAX_SESSIONLESS_FRAME}")
        if length == session["size"]:
            return None
        return wire.error_payload(wire.ERR_MALFORMED_QUERY, f"QUERY declares {length} "
                                  f"bytes; this session takes {session['size']}")


# keyed only by public values, the store's and the PARAMS ones; bounded, so a
# stream of PARAMS with ever-new fields cannot grow a server past it
@lru_cache(maxsize=64)
def _session_query(role: str, w: int, k: int, length: int, m: int, n_db: int, t: int):
    """The class of the protocol that :func:`~sidepir.stpir_psi.session_protocol`
    builds at a session's point (K, M, N, T) in GF(2^w), all a session keeps
    of it (``answer_query`` is static), with its QUERY shape on a store of
    messages of ``length`` symbols and that shape's length; a PirError where
    the point or the shape does not fit."""
    protocol = session_protocol(role, SchemeParams(k, m, n_db, t, w=w))
    shape = protocol.query_shape(length)
    return type(protocol), shape, wire.query_size(shape)


class DatabaseServer:
    """A TCP database server bound to a local port, the listener of its
    ``core``; ``port`` is the bound port (useful when constructed with
    port 0).

    Leader/followers: each (daemon) worker blocks in ``accept()`` itself
    and serves the connection it takes, then accepts again. A worker that
    takes a connection first starts another if none is left idle: starting
    a thread costs more than a loopback handshake, so the next connection
    finds one waiting. Workers are kept until the server stops: a server
    holds one more than it once had connections open at the same time.
    """

    def __init__(self, store: MessageStore, role: str = "tpir",
                 secret: bytes | None = None, host: str = "127.0.0.1",
                 port: int = 0):
        self.core = ServerCore(store, role=role, secret=secret)
        self.socket = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        if hasattr(socket, "TCP_DEFER_ACCEPT"):
            self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, DEFER_ACCEPT)
        self.address = self.socket.getsockname()[:2]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._idle = 0
        self._open = set()
        self._workers = []

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "DatabaseServer":
        with self._lock:
            self._follow()
        return self

    def serve_forever(self) -> None:
        """Start, then wait until the server is stopped (or interrupted)."""
        self.start()
        self._stopping.wait()

    def _follow(self) -> None:  # under the lock
        if not self._idle and not self._stopping.is_set():
            worker = threading.Thread(target=self._work, daemon=True)
            worker.start()
            self._workers.append(worker)
            self._idle += 1

    def _work(self) -> None:
        while not self._stopping.is_set():
            try:
                conn = self.socket.accept()[0]
            except OSError:  # shut by stop(); any other failure ends no worker
                continue
            try:
                with self._lock:
                    self._idle -= 1
                    self._open.add(conn)
                    self._follow()
                # the second of two pipelined replies must not wait for an ACK
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._serve(conn)
            except Exception:
                log.exception("error while serving a connection")
            finally:
                # idle before the close the client sees, so that the
                # client's next connection finds a worker idle
                with self._lock:
                    self._open.discard(conn)
                    self._idle += 1
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_WR)
                conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """One accepted connection's session; each reply goes out whole and
        unbuffered, so a PARAMS reply leaves before its QUERY is answered."""
        with conn.makefile("rb") as rfile:
            self.core.serve(rfile, SimpleNamespace(write=conn.sendall), self.core.new_session())

    def _shutdown_open(self, how):
        with self._lock:
            for conn in self._open:
                with contextlib.suppress(OSError):
                    conn.shutdown(how)

    def stop(self) -> None:
        """Stop accepting, wait for the sessions in flight and end every
        worker. Shutting the listening socket wakes each worker blocked in
        ``accept()`` (EINVAL, on Linux); it is closed last, when no worker
        can be in ``accept()`` on its descriptor. An open connection has its
        read side shut: its worker answers the frames already received, then
        reads the end of stream. One still open after CLOSE_GRACE seconds
        (its client does not read its answer, say) is shut both ways, so
        that its worker's write fails instead of blocking."""
        with self._lock:
            self._stopping.set()
            workers, self._workers = self._workers, []
        with contextlib.suppress(OSError):  # stopped before
            self.socket.shutdown(socket.SHUT_RDWR)
        self._shutdown_open(socket.SHUT_RD)
        deadline = time.monotonic() + CLOSE_GRACE
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        self._shutdown_open(socket.SHUT_RDWR)
        for worker in workers:
            worker.join()
        self.socket.close()
