"""Retrieving client: drives N databases over TCP or in process.

Both transports run the same frames through the same server session loop,
so a seeded retrieval records a transcript (the four payloads per endpoint)
byte-identical between a network run and the in-process simulator, which
also refuses and ends sessions alike. A retrieval is pipelined in one
thread: each endpoint's PARAMS and QUERY leave back to back in one send, to
every endpoint, before any reply is read; then each endpoint's two replies
are read in order. The servers work in parallel meanwhile, and any endpoint
failure aborts the retrieval. PARAMS name the session's point, ``n_db`` its
N for every scheme: the sum download asks endpoint 1 of N.
"""

from __future__ import annotations

import io
import socket
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import wire
from .capacity import SchemeParams
from .errors import CorruptionError, ParameterError, ProtocolError
from .field import OsRandom
from .server import MAX_SESSIONLESS_FRAME, ServerCore
from .store import MessageStore
from .stpir_psi import session_protocol


class TcpTransport:
    """One framed TCP connection to a database."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def send(self, frames) -> None:
        """Write (type, payload) frames back to back in one call, without
        waiting for a reply; each payload is copied once, into the join."""
        data = b"".join(part for ftype, payload in frames
                        for part in (wire.frame_head(ftype, len(payload)), payload))
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            # the server refused a frame from its head and closed; the
            # replies it wrote first, read next, say why
            pass

    def receive(self, limit: int = wire.MAX_PAYLOAD) -> tuple[int, bytes]:
        """The next reply; one whose head declares more than ``limit`` bytes
        is refused before its body is read."""
        return wire.read_frame(self._file, limit)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class LocalTransport:
    """In-process simulator: a ServerCore's session loop over in-memory
    streams, with the replies and the end of session of a TCP connection."""

    def __init__(self, core: ServerCore):
        self._core = core
        self._session = core.new_session()
        self._replies = io.BytesIO()
        self._over = False

    def send(self, frames) -> None:
        """Serve the frames; once the session is over, drop them, as a closed connection does."""
        if not self._over:
            unread = self._replies.tell()
            self._replies.seek(0, io.SEEK_END)
            frames = io.BytesIO(b"".join(wire.encode_frame(*frame) for frame in frames))
            self._over = self._core.serve(frames, self._replies, self._session)
            self._replies.seek(unread)

    def receive(self, limit: int = wire.MAX_PAYLOAD) -> tuple[int, bytes]:
        return wire.read_frame(self._replies, limit)

    def close(self) -> None:
        pass


def local_simulator(store: MessageStore, n: int, role: str = "tpir",
                    secret: bytes | None = None) -> list[LocalTransport]:
    """N in-process databases over one replicated store, all on one server core."""
    core = ServerCore(store, role=role, secret=secret)
    return [LocalTransport(core) for _ in range(n)]


def tcp_endpoints(spec: str) -> list[tuple[str, int]]:
    """Parse "host:port,host:port,..." into address tuples, each port in
    1..65535 (the resolver would wrap a larger one modulo 65536)."""
    out = []
    for part in spec.split(","):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
            raise ParameterError(f"bad endpoint {part!r}, want host:port")
        out.append((host, int(port)))
    return out


@dataclass(frozen=True)
class EndpointTranscript:
    endpoint: int  # 1-based position
    params_sent: bytes
    params_received: bytes
    query_sent: bytes
    answer_received: bytes


@dataclass(frozen=True)
class RetrievalResult:
    message: np.ndarray
    form: str
    downloaded_symbols: int
    downloaded_bits: int
    rate: Fraction
    capacity: Fraction
    store_digest: str
    transcripts: tuple[EndpointTranscript, ...]


def _receive(transport, endpoint: int, params_payload: bytes, query_payload: bytes,
             answer_limit: int) -> EndpointTranscript:
    replies = []
    for step, wanted, limit in (("params", wire.TYPE_PARAMS, MAX_SESSIONLESS_FRAME),
                                ("query", wire.TYPE_ANSWER, answer_limit)):
        try:
            ftype, reply = transport.receive(limit)
        except (ProtocolError, OSError) as exc:  # OSError: a reset or a timeout
            raise ProtocolError(f"endpoint {endpoint} replied to {step}: {exc}") from exc
        if ftype == wire.TYPE_ERROR:
            code, msg = wire.parse_error_payload(reply)
            raise ProtocolError(f"endpoint {endpoint} rejected {step} ({code:#x}): {msg}")
        if ftype != wanted:
            raise ProtocolError(f"endpoint {endpoint} answered {step} with type {ftype:#x}")
        replies.append(reply)
    return EndpointTranscript(endpoint, params_payload, replies[0], query_payload, replies[1])


def _run_endpoints(transports, params_payloads, query_payloads,
                   answer_limit: int = MAX_SESSIONLESS_FRAME):
    """Each endpoint's transcript: a PARAMS reply may be as long as a
    sessionless frame, and a QUERY reply as long as ``answer_limit``."""
    # A server replies to a frame only once it has read it whole, and an
    # unread reply stalls only its own server: sending to every endpoint
    # before reading cannot deadlock.
    asked = list(zip(transports, params_payloads, query_payloads))
    for tr, params, query in asked:
        tr.send(((wire.TYPE_PARAMS, params), (wire.TYPE_QUERY, query)))
    return [_receive(tr, i + 1, params, query, answer_limit)
            for i, (tr, params, query) in enumerate(asked)]


def _check_replicas(transcripts) -> str:
    # replicas send the same reply bytes: each distinct one is parsed once
    digests = {wire.parse_params_payload(reply).get("store_digest")
               for reply in {t.params_received for t in transcripts}}
    if len(digests) != 1:
        raise CorruptionError(f"store replicas differ: {sorted(digests)}")
    return digests.pop()


@lru_cache(maxsize=64)
def _params_frames(params: SchemeParams, scheme: str, w: int,
                   message_length: int) -> tuple[bytes, ...]:
    """Each endpoint's PARAMS payload, the same for every session of a point:
    its index and the point (K, M, N, T), whichever endpoints are asked."""
    return tuple(
        wire.params_payload({
            "scheme": scheme,
            "endpoint": i + 1,
            "n_db": params.N,
            "k": params.K,
            "m": params.M,
            "t": params.T,
            "w": w,
            "message_length": message_length,
        })
        for i in range(params.N)
    )


def retrieve(transports, params: SchemeParams, theta: int, side,
             seed: int | np.random.Generator | None = None, scheme: str = "tpir",
             raw: bool = False) -> RetrievalResult:
    """Run one full retrieval over already-connected transports.

    ``side`` maps cached 1-based message indices to their symbol vectors
    (empty for M = 0). ``raw`` disables redundancy removal, which also arms
    the cached-value consistency check on the raw answers. Without a
    ``seed`` the session's randomness comes from the operating system; a
    seeded retrieval replays its draw, so it is reproducible and not private.

    The scheme's protocol (:func:`~sidepir.stpir_psi.session_protocol`)
    checks the cache, draws one session, writes a QUERY payload for each
    endpoint it asks, states the answer form and symbol count it expects of
    each, and decodes; the exchange and its checks are shared.
    """
    protocol = session_protocol(scheme, params, raw)
    # checked before any scheme work: the sum download asks its first
    # endpoint, every other protocol all N
    one = protocol.endpoints == 1
    if len(transports) != params.N and not (one and transports):
        raise ParameterError(f"need {'an endpoint' if one else f'{params.N} endpoints'}, "
                             f"got {len(transports)}")
    protocol, side = protocol.prepare(theta, side or {})
    source = OsRandom() if seed is None else np.random.default_rng(seed)
    state = protocol.draw(theta, [source])
    payloads = list(protocol.payloads(state)[0].values())
    field, form, count = protocol.field, protocol.form, protocol.count
    transcripts = _run_endpoints(transports, _params_frames(
        params, scheme, field.w, protocol.message_length), payloads,
        max(MAX_SESSIONLESS_FRAME, wire.answer_size(field, count)))
    digest = _check_replicas(transcripts)
    answers = []
    for t in transcripts:
        try:
            got, symbols = wire.parse_answer(field, t.answer_received)
        except ProtocolError as exc:
            raise ProtocolError(f"endpoint {t.endpoint} sent a malformed answer: {exc}") from exc
        if (got, len(symbols)) != (form, count):
            raise ProtocolError(
                f"endpoint {t.endpoint} sent answer form {got:#x} with {len(symbols)} "
                f"symbols, the query asked for form {form:#x} with {count}")
        answers.append(symbols)
    message = protocol.finish(state, np.concatenate(answers).reshape(len(answers), 1, count),
                              {i: vec[None] for i, vec in side.items()})[0]
    downloaded = count * len(answers)
    return RetrievalResult(
        message=message, form=wire.FORM_NAMES[form], downloaded_symbols=downloaded,
        downloaded_bits=downloaded * field.w, rate=Fraction(protocol.message_length, downloaded),
        capacity=protocol.capacity(), store_digest=digest, transcripts=tuple(transcripts),
    )
