"""Database server: a replicated store behind the framed TCP protocol.

The protocol logic lives in :class:`ServerCore`, which maps one inbound
frame to one reply frame given per-connection session state. The TCP server
and the client's in-process simulator both drive that core, which is what
makes network and simulated transcripts byte-identical.

Sessions are one QUERY each: a connection first announces itself with a
PARAMS frame (carrying its assigned endpoint index, which the symmetric
scheme needs for its evaluation point), then sends the QUERY. A client may
send both back to back: frames are answered in order, one reply each, and
the QUERY is sized against the session that PARAMS set. Any frame before
that, and any frame but the QUERY after it, is bounded by
:data:`MAX_SESSIONLESS_FRAME`. Servers keep no state across sessions beyond
the store and the shared secret.
"""

from __future__ import annotations

import hashlib
import logging
import socketserver
import threading

import numpy as np

from . import wire
from .capacity import SchemeParams
from .errors import MalformedQueryError, ParameterError, PirError, ProtocolError
from .store import MessageStore
from .stpir_psi import (derive_common_randomness, point_powers,
                        sum_shortcut_answer, sym_answer)
from .tpir_psi import DatabaseQuery, _skeleton, answer

ROLES = ("tpir", "stpir")

# a PARAMS payload is at most 216 bytes even with all seven integers at u64
# width; no frame but a session's QUERY may declare more than this
MAX_SESSIONLESS_FRAME = 4096
_INT_FIELDS = ("endpoint", "n_db", "k", "m", "t", "w", "message_length")

log = logging.getLogger(__name__)


class ServerCore:
    """Frame-level protocol logic for one database."""

    def __init__(self, store: MessageStore, role: str = "tpir",
                 secret: bytes | None = None):
        if role not in ROLES:
            raise ParameterError(f"role must be one of {ROLES}")
        if role == "stpir" and not secret:
            raise ParameterError("the symmetric role needs a shared secret")
        self.store = store
        self.role = role
        self.secret = secret
        self.store_digest = hashlib.sha256(wire.store_bytes(store)).hexdigest()

    def new_session(self) -> dict:
        return {}

    def handle_frame(self, session: dict, ftype: int, payload: bytes) -> tuple[int, bytes]:
        try:
            if ftype == wire.TYPE_PARAMS:
                return self._handle_params(session, payload)
            if ftype == wire.TYPE_QUERY:
                return self._handle_query(session, payload)
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_PROTOCOL, f"unexpected frame type {ftype:#x}")
        except MalformedQueryError as exc:
            return wire.TYPE_ERROR, wire.error_payload(wire.ERR_MALFORMED_QUERY, str(exc))
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
        if problems:
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_STORE_MISMATCH, "; ".join(problems))
        session["endpoint"] = endpoint
        session["m"] = req["m"]
        session["t"] = req["t"]
        session["n_db"] = n_db
        reply = wire.params_payload({
            "ok": True,
            "store_digest": self.store_digest,
            "k": self.store.num_messages,
            "message_length": self.store.message_length,
            "w": self.store.field.w,
        })
        return wire.TYPE_PARAMS, reply

    def _handle_query(self, session: dict, payload: bytes) -> tuple[int, bytes]:
        if "endpoint" not in session:
            return wire.TYPE_ERROR, wire.error_payload(
                wire.ERR_PROTOCOL, "QUERY before PARAMS")
        layered = self._layered_shape(session) if self.role == "tpir" else None
        try:
            query = wire.parse_query_payload(payload, session["endpoint"] - 1, layered)
        except ProtocolError as exc:
            return wire.TYPE_ERROR, wire.error_payload(wire.ERR_MALFORMED_QUERY, str(exc))
        field = self.store.field
        if isinstance(query, DatabaseQuery):
            form, symbols = answer(query, self.store)
            wire_form = wire.FORM_COMPRESSED if form == "compressed" else wire.FORM_RAW
            return wire.TYPE_ANSWER, wire.serialize_answer(field, wire_form, symbols)
        if self.role != "stpir":
            raise MalformedQueryError("a tpir server answers layered queries only")
        if isinstance(query, wire.SymQueryWire):
            if query.w != field.w or query.coords.shape != self.store.messages.shape:
                raise MalformedQueryError(
                    f"{query.w}-bit query of shape {query.coords.shape} does not match the store")
            # the mask length is the session's declared threshold, never the
            # query's word: a shorter mask would weaken database privacy; and
            # the points 1..N must be nonzero field elements
            if query.t != session["t"] or not 1 <= query.t < session["n_db"] < field.q:
                raise MalformedQueryError(
                    f"query threshold {query.t} does not fit the session's "
                    f"{session['n_db']} points in GF(2^{field.w})")
            sigma = derive_common_randomness(self.secret, query.session_id,
                                             query.t, field)
            # only this endpoint's T powers: never a table sized by N
            value = sym_answer(field, query.coords, self.store.messages, sigma,
                               point_powers(field, session["endpoint"], query.t))
            return wire.TYPE_ANSWER, wire.serialize_answer(
                field, wire.FORM_SYMMETRIC, np.array([value], dtype=field.dtype))
        if query.w != field.w or query.num_messages != self.store.num_messages \
                or query.message_length != self.store.message_length:
            raise MalformedQueryError("sum query does not match the store")
        return wire.TYPE_ANSWER, wire.serialize_answer(
            field, wire.FORM_SUM, sum_shortcut_answer(self.store))

    def refuse_unread(self, session: dict, ftype: int, length: int) -> bytes | None:
        """An ERROR payload for a frame refused from its head alone, before its
        body is read: a QUERY after PARAMS that declares a length its session
        cannot take, or any other frame longer than MAX_SESSIONLESS_FRAME.
        None for a frame that is to be read."""
        if ftype != wire.TYPE_QUERY or "endpoint" not in session:
            if length <= MAX_SESSIONLESS_FRAME:
                return None
            return wire.error_payload(
                wire.ERR_MALFORMED_FRAME, f"frame of type {ftype:#x} declares {length} "
                f"bytes; before a session's QUERY the limit is {MAX_SESSIONLESS_FRAME}")
        try:
            layered = self._layered_shape(session) if self.role == "tpir" else None
        except MalformedQueryError as exc:
            return wire.error_payload(wire.ERR_MALFORMED_QUERY, str(exc))
        allowed = wire.query_sizes(self.store, layered)
        if length in allowed:
            return None
        return wire.error_payload(wire.ERR_MALFORMED_QUERY,
                                  f"QUERY declares {length} bytes; this session takes {allowed}")

    def _layered_shape(self, session: dict) -> wire.LayeredShape:
        """The store's w, K and L, and the public slot table and p2 of the
        PARAMS frame's (M, N, T), whose N^K must be the store's length. The
        table is the same for every desired index, and its slot count caps the
        compression code a query makes the server build."""
        k, length = self.store.num_messages, self.store.message_length
        m, n_db, t = session["m"], session["n_db"], session["t"]
        if not 1 <= n_db <= length or n_db ** k != length:
            raise MalformedQueryError(
                f"session parameters (M={m}, N={n_db}, T={t}) do not fit a "
                f"layered scheme on {k} messages of length {length}")
        try:
            params = SchemeParams(k, m, n_db, t)
        except ParameterError as exc:
            raise MalformedQueryError(f"session parameters: {exc}") from exc
        if not params.constructible:
            raise MalformedQueryError(f"no layered scheme exists for {params.label()}")
        skeleton = _skeleton(params, 1)
        return wire.LayeredShape(self.store.field.w, k, length, skeleton.slot_members,
                                 skeleton.profile.p2)


class _Handler(socketserver.StreamRequestHandler):
    # a pipelined session gets two replies back to back: the second must not
    # wait for the client to acknowledge the first
    disable_nagle_algorithm = True

    def handle(self):
        core: ServerCore = self.server.core  # type: ignore[attr-defined]
        session = core.new_session()
        while True:
            try:
                head = wire.read_frame_head(self.rfile)
                if head is None:
                    return
                # a refused head leaves its body unread, the stream unframed
                error = core.refuse_unread(session, *head)
                reply = (wire.TYPE_ERROR, error) if error else core.handle_frame(
                    session, head[0], wire.read_exact(self.rfile, head[1]))
            except ProtocolError as exc:
                error = wire.error_payload(wire.ERR_MALFORMED_FRAME, str(exc))
                reply = wire.TYPE_ERROR, error
            try:
                self.wfile.write(wire.encode_frame(*reply))
            except OSError:
                return
            if error:
                return


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class DatabaseServer:
    """A TCP database server bound to a local port.

    Usable as a context manager; ``port`` is the bound port (useful when
    constructed with port 0).
    """

    def __init__(self, store: MessageStore, role: str = "tpir",
                 secret: bytes | None = None, host: str = "127.0.0.1",
                 port: int = 0):
        self.core = ServerCore(store, role=role, secret=secret)
        self._server = _ThreadingServer((host, port), _Handler)
        self._server.core = self.core  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "DatabaseServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name=f"sidepir-db-{self.port}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
