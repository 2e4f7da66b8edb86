"""Symmetric variant: database privacy through server-shared randomness.

Messages are N - T symbols long. The query to database n evaluates, per
(message k, symbol i), a private uniform masking polynomial of degree < T at
that database's public point, plus an indicator monomial x^(T-1+i) when k is
the desired message. Each database returns a single symbol: the inner
product of the query with its stored symbols, plus a masking polynomial
sigma (degree < T, shared by all databases, unknown to the client) evaluated
at its point.

The N answers are then evaluations of one polynomial of degree < N whose
top N - T coefficients are exactly the desired message and whose low T
coefficients are uniformly masked by sigma. Interpolation decodes; any T
evaluations of the degree-< T masks are jointly uniform, so T colluding
databases learn nothing about the desired index; sigma hides everything
except the desired message from the client.

Per session the databases consume exactly T shared symbols to deliver N - T
desired symbols, so the shared-randomness rate is T / (N - T).

:class:`SymmetricProtocol` holds a point's public evaluation points, the
encoding of databases 1..N, and their powers. Every step takes leading
session axes: one answer kernel, :func:`sym_answer`, serves a server's
single answer (:meth:`SymmetricProtocol.answer_query`, from the endpoint's
cached point powers) and, through :func:`sym_answers`, all N databases of a
batch of audited sessions.

When the client already caches K - 1 messages, a one-database download of
the plain sum of all messages recovers the remaining one at rate 1 with no
shared randomness at all. :func:`session_protocol` picks the protocol
object a retrieval, an audit and a server session all run.
"""

from __future__ import annotations

import hashlib
import hmac
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import linalg, wire
from .capacity import SchemeParams, capacity_stpir_psi
from .errors import ParameterError, ProtocolError, ZeroCapacityError
from .field import GF, standard_field
from .store import MessageStore, check_side
from .tpir_psi import LayeredProtocol

SESSION_ID_BYTES = 16


def sym_field_width(params: SchemeParams) -> int:
    """Smallest protocol width with more elements than evaluation points."""
    for w in (4, 8, 16):
        if (1 << w) > params.N:
            return w
    raise ParameterError(f"no protocol field has more than {params.N} elements")


def point_powers(field: GF, points, count: int) -> np.ndarray:
    """P[..., j] = points ** j, j < count, for nonzero points; (count,) for a scalar."""
    logs = field._log[np.asarray(points)][..., None].astype(np.int64)
    return field._alog[logs * np.arange(count) % field._order]


@lru_cache(maxsize=16)
def _endpoint_powers(field: GF, endpoint: int, count: int) -> np.ndarray:
    """The powers 0..count-1 of database ``endpoint``'s point, read-only: the
    same in every session of that endpoint and threshold. T < 2^w bounds each."""
    powers = point_powers(field, endpoint, count)
    powers.flags.writeable = False
    return powers


def derive_common_randomness(secret: bytes, session_id: bytes, t: int,
                             field: GF) -> np.ndarray:
    """The session's shared masking polynomial sigma: its T coefficients of
    x^0 .. x^(T-1), read-only.

    A keyed-PRF expansion of (secret, session id), so the databases agree
    without a coordination round and the client can never reconstruct it.
    """
    if len(session_id) != SESSION_ID_BYTES:
        raise ProtocolError(f"session id must be {SESSION_ID_BYTES} bytes")
    if not secret:
        raise ParameterError("shared secret must be nonempty")
    need = field.packed_size(t)
    stream = b"".join(hmac.new(secret, session_id + counter.to_bytes(4, "little"),
                               hashlib.sha256).digest()
                      for counter in range((need + 31) // 32))  # 32-byte blocks
    sigma = field.unpack(stream[:need], t)
    sigma.flags.writeable = False
    return sigma


def queries_from_masks(sp: SymmetricProtocol, theta: int, masks: np.ndarray) -> np.ndarray:
    """Deterministic query assembly from explicit masking coefficients.

    ``masks`` has shape (..., K, N - T, T): one degree-< T polynomial per
    query coordinate, with any leading session axes. Returns the queries
    shaped (..., N, K, N - T). Exposed separately so tests can pin the
    randomness (an all-zero mask still decodes; it only stops hiding) and so
    a batch of sessions is assembled at once: each mask evaluated at every
    point is one broadcast multiplication by the T mask columns of
    ``vander`` and an XOR over T.
    """
    params, field = sp.params, sp.field
    ell, t = sp.message_length, params.T
    if params.T == params.N:
        raise ZeroCapacityError(f"{params.label()}: symmetric retrieval has rate 1 - T/N = 0")
    if not 1 <= theta <= params.K:
        raise ParameterError(f"desired index {theta} outside 1..{params.K}")
    if masks.shape[-3:] != (params.K, ell, t):
        raise ParameterError(f"masks must have shape (..., {params.K}, {ell}, {t})")
    # (N, 1, 1, T) columns times (..., 1, K, N - T, T) masks
    terms = field.mul(sp.vander[:, None, None, :t], np.expand_dims(masks, -4))
    queries = np.bitwise_xor.reduce(terms, axis=-1)
    queries[..., theta - 1, :] ^= sp.vander[:, t:]
    return queries


def sym_masks(sp: SymmetricProtocol, rng: np.random.Generator) -> np.ndarray:
    """One session's uniform masking coefficients, shape (K, N - T, T)."""
    return sp.field.random_symbols(rng, (sp.params.K, sp.message_length, sp.params.T))


def sym_answer(field: GF, queries: np.ndarray, messages: np.ndarray,
               sigma: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Database answers: each (K, N - T) query's inner product with its store,
    plus sigma evaluated at the point whose powers 0..T-1 are ``powers``.
    Operands broadcast over leading axes: one database's query gives a 0-d
    answer, all N databases of B sessions give (B, N) answers."""
    inner = np.bitwise_xor.reduce(field.mul(queries, messages), axis=(-2, -1))
    return inner ^ np.bitwise_xor.reduce(field.mul(powers, sigma), axis=-1)


def sym_answers(sp: SymmetricProtocol, queries: np.ndarray, messages: np.ndarray,
                sigma: np.ndarray) -> np.ndarray:
    """All N databases' answers, shaped (..., N), to queries (..., N, K, N - T)
    on stores (..., K, N - T) under shared masks (..., T)."""
    return sym_answer(sp.field, queries, np.expand_dims(messages, -3),
                      np.expand_dims(sigma, -2), sp.vander[:, :sp.params.T])


def sym_coefficients(answers: np.ndarray, sp: SymmetricProtocol, low: int = 0) -> np.ndarray:
    """Coefficients ``low`` .. N-1 of the answer polynomial, by interpolation,
    for answers shaped (..., N): one broadcast product of the cached
    interpolation rows with the answers and an XOR over N, which at N <= 4
    costs less than a general :func:`linalg.matmul`."""
    if np.shape(answers)[-1:] != (sp.params.N,):
        raise ProtocolError(f"need {sp.params.N} answers, got {np.shape(answers)}")
    terms = sp.field.mul(sp.interp[low:], np.expand_dims(answers, -2))
    return np.bitwise_xor.reduce(terms, axis=-1)


def sym_decode(answers: np.ndarray, sp: SymmetricProtocol) -> np.ndarray:
    """Interpolate the answer polynomial; its top N - T coefficients are the
    desired message."""
    return sym_coefficients(answers, sp, sp.params.T)


def sum_shortcut_answer(store: MessageStore) -> np.ndarray:
    """The one-database answer when the client caches all but one message:
    the plain sum of every stored message."""
    return np.bitwise_xor.reduce(store.messages, axis=-2)


class SymmetricProtocol:
    """The symmetric scheme as a retrieval runs it, over a leading session
    axis: N databases asked for one symbol each, so that ``answers`` are
    shaped (N, sessions, 1). The cache is checked, never read. Its tables,
    read-only, are built on first use, so a server builds a session's
    protocol at no cost sized by N; :func:`make_sym_params` builds it once
    per point."""

    def __init__(self, params: SchemeParams):
        if params.K < 2:
            raise ParameterError("the symmetric scheme is defined for K >= 2 messages")
        field = standard_field(params.w or sym_field_width(params))
        if field.q <= params.N:
            raise ParameterError(
                f"width {field.w} gives only {field.q} evaluation points for N={params.N}")
        self.params, self.field, self.endpoints = params, field, params.N
        self.message_length, self.form, self.count = params.N - params.T, wire.FORM_SYMMETRIC, 1

    @cached_property
    def lambdas(self) -> np.ndarray:
        """The N public points: database n's is n, as in :func:`_endpoint_powers`."""
        lambdas = np.arange(1, self.params.N + 1, dtype=self.field.dtype)
        lambdas.flags.writeable = False
        return lambdas

    @cached_property
    def vander(self) -> np.ndarray:
        """(N, N) powers lambda_n ** j: T mask columns, then N - T indicators."""
        vander = point_powers(self.field, self.lambdas, self.params.N)
        vander.flags.writeable = False
        return vander

    @cached_property
    def interp(self) -> np.ndarray:
        """(N, N) inverse of ``vander``: answers -> coefficients, on first use."""
        inv = linalg.inv_matrix(self.field, self.vander)
        inv.flags.writeable = False
        return inv

    def prepare(self, theta: int, side) -> tuple[SymmetricProtocol, dict[int, np.ndarray]]:
        """This protocol, and one session's cache checked by :func:`check_side`."""
        return self, check_side(side, self.params, theta, self.field, (self.message_length,))

    def draw(self, theta: int, rngs) -> tuple[list[bytes], np.ndarray, np.ndarray]:
        """Session ids, masks and queries of one session per random source, each
        drawing its id, then its masks; one product assembles all queries."""
        drawn = [(rng.bytes(SESSION_ID_BYTES), sym_masks(self, rng)[None]) for rng in rngs]
        masks = np.concatenate([m for _, m in drawn])
        return [sid for sid, _ in drawn], masks, queries_from_masks(self, theta, masks)

    def payloads(self, state) -> list[dict[int, bytes]]:
        """Each session's QUERY payloads, keyed by 1-based database."""
        w, t = self.field.w, self.params.T
        return [{n + 1: wire.serialize_sym_query(w, sid, t, q[n]) for n in range(len(q))}
                for sid, q in zip(state[0], state[2])]

    def answer(self, state, store: MessageStore, secret: bytes | None) -> np.ndarray:
        """Every database's answers in process, masked with the sigma that
        ``secret`` derives per session id, or, where it is None, unmasked."""
        ids, t = state[0], self.params.T
        sigma = (np.zeros((len(ids), t), dtype=self.field.dtype) if secret is None else
                 np.stack([derive_common_randomness(secret, sid, t, self.field) for sid in ids]))
        return sym_answers(self, state[2], store.messages, sigma).T[..., None]

    def finish(self, state, answers, side) -> np.ndarray:
        return sym_decode(answers[..., 0].T, self)

    @staticmethod
    def answer_query(query: wire.SymQueryWire, store: MessageStore, endpoint: int,
                     secret: bytes) -> tuple[int, np.ndarray]:
        """Database ``endpoint``'s reply to a parsed QUERY, as (form byte,
        symbols): from its own T powers only, never a table sized by N."""
        sigma = derive_common_randomness(secret, query.session_id, query.t, store.field)
        powers = _endpoint_powers(store.field, endpoint, query.t)
        return wire.FORM_SYMMETRIC, sym_answer(
            store.field, query.coords, store.messages, sigma, powers)[None]

    def capacity(self) -> Fraction:
        return capacity_stpir_psi(self.params, self.rho())

    def rho(self) -> Fraction:
        """Shared randomness consumed per desired symbol."""
        return Fraction(self.params.T, self.params.N - self.params.T)

    def query_shape(self, length: int) -> wire.SymmetricShape:
        """The QUERY shape of a session on a store of messages of ``length``
        symbols: T mask symbols (fewer would weaken database privacy) and
        N - T coordinates per message; a ParameterError for another length."""
        if length != self.message_length:
            raise ParameterError(f"{self.params.label()}: the symmetric scheme takes messages "
                                 f"of N - T = {self.message_length} symbols, not {length}")
        return wire.SymmetricShape(self.field.w, self.params.K, length, self.params.T)


class SumProtocol:
    """Rate-1 retrieval when all but one message is cached: one database is
    asked for the plain sum of every message, so that ``answers`` are shaped
    (1, sessions, length), and the cache is stripped off. The point leaves
    the length open: the audits take N - T, a client its cache's."""

    def __init__(self, params: SchemeParams, length: int | None = None):
        self.params, self.endpoints = params, 1
        self.field = standard_field(params.w or sym_field_width(params))
        self.message_length = params.N - params.T if length is None else length
        self.form, self.count = wire.FORM_SUM, self.message_length

    def prepare(self, theta: int, side) -> tuple[SumProtocol, dict[int, np.ndarray]]:
        """This protocol at the cache's message length, and one session's checked cache."""
        side = check_side(side, self.params, theta, self.field, None)
        length = len(next(iter(side.values())))
        return self if length == self.message_length else SumProtocol(self.params, length), side

    def draw(self, theta: int, rngs) -> int:
        return len(rngs)

    def payloads(self, state: int) -> list[dict[int, bytes]]:
        payload = wire.serialize_sum_query(self.field.w, self.params.K, self.message_length)
        return [{1: payload} for _ in range(state)]

    def answer(self, state: int, store: MessageStore, secret: bytes | None = None) -> np.ndarray:
        total = sum_shortcut_answer(store)
        return np.broadcast_to(total, (state, total.shape[-1]))[None]

    def finish(self, state, answers, side) -> np.ndarray:
        return answers[0] ^ np.bitwise_xor.reduce(np.stack(list(side.values())), axis=0)

    @staticmethod
    def answer_query(query, store: MessageStore, endpoint, secret) -> tuple[int, np.ndarray]:
        return wire.FORM_SUM, sum_shortcut_answer(store)

    def capacity(self) -> Fraction:
        return capacity_stpir_psi(self.params, self.rho())

    def rho(self) -> Fraction:
        return Fraction(0)

    def query_shape(self, length: int) -> wire.SumShape:
        """The QUERY shape of a session on a store of messages of any ``length``."""
        return wire.SumShape(self.field.w, self.params.K, length)


@lru_cache(maxsize=64)
def make_sym_params(params: SchemeParams) -> SymmetricProtocol:
    """The symmetric protocol at ``params``, built once per point."""
    return SymmetricProtocol(params)


@lru_cache(maxsize=64)
def session_protocol(scheme: str, params: SchemeParams, raw: bool = False):
    """The protocol a ``scheme`` retrieval runs at ``params``, built once per
    (scheme, point, raw): the layered one for tpir; for stpir (K >= 2), the
    sum download when all but one message is cached, else the symmetric
    one. Only the layered answers have a raw form."""
    if scheme == "tpir":
        return LayeredProtocol(params, raw)
    if scheme != "stpir":
        raise ParameterError(f"unknown scheme {scheme!r}")
    if raw:
        raise ParameterError("raw answers are the tpir scheme's; stpir answers have one form")
    if params.K < 2:
        raise ParameterError("the stpir scheme is defined for K >= 2 messages")
    return SumProtocol(params) if params.all_but_one_cached else make_sym_params(params)
