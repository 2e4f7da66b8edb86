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

Every step takes leading session axes: one answer kernel, :func:`sym_answer`,
serves a server's single answer and, through :func:`sym_answers`, all N
databases of a batch of audited sessions.

When the client already caches K - 1 messages, a one-database download of
the plain sum of all messages recovers the remaining one at rate 1 with no
shared randomness at all.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .capacity import SchemeParams
from .errors import (
    InvalidSideInformationError,
    ParameterError,
    ProtocolError,
    ZeroCapacityError,
)
from .field import GF, standard_field
from .store import MessageStore

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


@dataclass(frozen=True)
class SymParams:
    """Symmetric-scheme parameters with the public evaluation points and
    their powers, read-only and built once per parameter point by the
    cached :func:`make_sym_params`."""

    base: SchemeParams
    field: GF
    lambdas: np.ndarray  # (N,) distinct nonzero points, the encoding of 1..N
    vander: np.ndarray   # (N, N) lambda_n ** j: T mask columns, N - T indicators

    @property
    def message_length(self) -> int:
        return self.base.N - self.base.T

    @cached_property
    def interp(self) -> np.ndarray:
        """(N, N) inverse of ``vander``: answers -> coefficients, on first use."""
        inv = linalg.inv_matrix(self.field, self.vander)
        inv.flags.writeable = False
        return inv


@lru_cache(maxsize=64)
def make_sym_params(params: SchemeParams) -> SymParams:
    if params.K < 2:
        raise ParameterError("the symmetric scheme is defined for K >= 2 messages")
    field = standard_field(params.w or sym_field_width(params))
    if field.q <= params.N:
        raise ParameterError(
            f"width {field.w} gives only {field.q} evaluation points for N={params.N}"
        )
    lambdas = np.arange(1, params.N + 1, dtype=field.dtype)
    vander = point_powers(field, lambdas, params.N)
    for arr in (lambdas, vander):
        arr.flags.writeable = False
    return SymParams(base=params, field=field, lambdas=lambdas, vander=vander)


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


def queries_from_masks(sp: SymParams, theta: int, masks: np.ndarray) -> np.ndarray:
    """Deterministic query assembly from explicit masking coefficients.

    ``masks`` has shape (..., K, N - T, T): one degree-< T polynomial per
    query coordinate, with any leading session axes. Returns the queries
    shaped (..., N, K, N - T). Exposed separately so tests can pin the
    randomness (an all-zero mask still decodes; it only stops hiding) and so
    a batch of sessions is assembled at once: each mask evaluated at every
    point is one broadcast multiplication by the T mask columns of
    ``vander`` and an XOR over T.
    """
    params, field = sp.base, sp.field
    ell, t = sp.message_length, params.T
    if masks.shape[-3:] != (params.K, ell, t):
        raise ParameterError(f"masks must have shape (..., {params.K}, {ell}, {t})")
    # (N, 1, 1, T) columns times (..., 1, K, N - T, T) masks
    terms = field.mul(sp.vander[:, None, None, :t], np.expand_dims(masks, -4))
    queries = np.bitwise_xor.reduce(terms, axis=-1)
    queries[..., theta - 1, :] ^= sp.vander[:, t:]
    return queries


def sym_masks(sp: SymParams, rng: np.random.Generator) -> np.ndarray:
    """One session's uniform masking coefficients, shape (K, N - T, T)."""
    return sp.field.random_symbols(rng, (sp.base.K, sp.message_length, sp.base.T))


def sym_query(sp: SymParams, theta: int, rng: np.random.Generator) -> np.ndarray:
    """The N queries, shape (N, K, N - T); any T of them are jointly uniform.

    The cached set is deliberately not an input: queries depend on
    (theta, randomness) only.
    """
    params = sp.base
    if params.T == params.N:
        raise ZeroCapacityError(
            f"{params.label()}: symmetric retrieval has rate 1 - T/N = 0"
        )
    if not 1 <= theta <= params.K:
        raise ParameterError(f"desired index {theta} outside 1..{params.K}")
    return queries_from_masks(sp, theta, sym_masks(sp, rng))


def sym_answer(field: GF, queries: np.ndarray, messages: np.ndarray,
               sigma: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Database answers: each (K, N - T) query's inner product with its store,
    plus sigma evaluated at the point whose powers 0..T-1 are ``powers``.
    Operands broadcast over leading axes: one database's query gives a 0-d
    answer, all N databases of B sessions give (B, N) answers."""
    inner = np.bitwise_xor.reduce(field.mul(queries, messages), axis=(-2, -1))
    return inner ^ np.bitwise_xor.reduce(field.mul(powers, sigma), axis=-1)


def sym_answers(sp: SymParams, queries: np.ndarray, messages: np.ndarray,
                sigma: np.ndarray) -> np.ndarray:
    """All N databases' answers, shaped (..., N), to queries (..., N, K, N - T)
    on stores (..., K, N - T) under shared masks (..., T)."""
    return sym_answer(sp.field, queries, np.expand_dims(messages, -3),
                      np.expand_dims(sigma, -2), sp.vander[:, :sp.base.T])


def sym_coefficients(answers: np.ndarray, sp: SymParams) -> np.ndarray:
    """All N coefficients of the answer polynomial, by interpolation, for
    answers shaped (..., N)."""
    if np.shape(answers)[-1:] != (sp.base.N,):
        raise ProtocolError(f"need {sp.base.N} answers, got {np.shape(answers)}")
    return linalg.matvec(sp.field, sp.interp, answers)


def sym_decode(answers: np.ndarray, sp: SymParams) -> np.ndarray:
    """Interpolate the answer polynomial; its top N - T coefficients are the
    desired message."""
    return sym_coefficients(answers, sp)[..., sp.base.T:]


def sum_shortcut_answer(store: MessageStore) -> np.ndarray:
    """The one-database answer when the client caches all but one message:
    the plain sum of every stored message."""
    return np.bitwise_xor.reduce(store.messages, axis=0)


def cached_sum(side, k: int, theta: int, field: GF) -> np.ndarray:
    """The sum of an all-but-one cache: what the sum shortcut strips from
    the downloaded sum of all K messages.

    Checks first that ``side`` holds exactly the K - 1 messages other than
    ``theta``, all of one length and of field symbols, so a client can
    refuse a wrong cache before it sends anything.
    """
    if not 1 <= theta <= k:
        raise ParameterError(f"desired index {theta} outside 1..{k}")
    side = {int(i): np.asarray(v) for i, v in side.items()}
    if theta in side:
        raise InvalidSideInformationError("the desired message cannot be cached")
    if set(side) != set(range(1, k + 1)) - {theta}:
        raise InvalidSideInformationError(
            "sum shortcut needs exactly the K-1 other messages cached"
        )
    if len({vec.shape for vec in side.values()}) != 1:
        raise InvalidSideInformationError("cached messages must share one length")
    for i, vec in side.items():
        if not field.contains(vec):
            raise InvalidSideInformationError(f"cached message {i} holds non-field symbols")
    return np.bitwise_xor.reduce(np.stack(list(side.values())), axis=0).astype(field.dtype)


def sym_sum_shortcut(store: MessageStore, side, theta: int) -> np.ndarray:
    """Rate-1 retrieval for M = K - 1: download the sum from one database
    and strip the cached messages. Consumes no shared randomness."""
    strip = cached_sum(side, store.num_messages, theta, store.field)
    total = sum_shortcut_answer(store)
    if strip.shape != total.shape:
        raise InvalidSideInformationError("cached message has the wrong length")
    return total ^ strip
