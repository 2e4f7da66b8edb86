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

When the client already caches K - 1 messages, a one-database download of
the plain sum of all messages recovers the remaining one at rate 1 with no
shared randomness at all.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .capacity import SchemeParams
from .errors import (
    InvalidSideInformationError,
    MalformedQueryError,
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


@dataclass(frozen=True)
class SymParams:
    """Symmetric-scheme parameters with the public evaluation points."""

    base: SchemeParams
    field: GF
    lambdas: np.ndarray  # N distinct nonzero points, the encoding of 1..N

    @property
    def message_length(self) -> int:
        return self.base.N - self.base.T


def make_sym_params(params: SchemeParams) -> SymParams:
    if params.K < 2:
        raise ParameterError("the symmetric scheme is defined for K >= 2 messages")
    field = standard_field(params.w or sym_field_width(params))
    if field.q <= params.N:
        raise ParameterError(
            f"width {field.w} gives only {field.q} evaluation points for N={params.N}"
        )
    lambdas = np.arange(1, params.N + 1, dtype=field.dtype)
    lambdas.flags.writeable = False
    return SymParams(base=params, field=field, lambdas=lambdas)


@dataclass(frozen=True)
class CommonRandomness:
    """Per-session masking coefficients shared by every database.

    sigma holds the T coefficients of the masking polynomial; it is derived
    from a server-shared secret and the session id, so the databases agree
    without a coordination round and the client can never reconstruct it.
    """

    session_id: bytes
    sigma: np.ndarray  # (T,) coefficients of x^0 .. x^(T-1)


def derive_common_randomness(secret: bytes, session_id: bytes, t: int,
                             field: GF) -> CommonRandomness:
    """Keyed-PRF expansion of (secret, session id) into T field symbols."""
    if len(session_id) != SESSION_ID_BYTES:
        raise ProtocolError(f"session id must be {SESSION_ID_BYTES} bytes")
    if not secret:
        raise ParameterError("shared secret must be nonempty")
    need = field.packed_size(t)
    stream = b""
    counter = 0
    while len(stream) < need:
        stream += hmac.new(secret, session_id + counter.to_bytes(4, "little"),
                           hashlib.sha256).digest()
        counter += 1
    sigma = field.unpack(stream[:need], t)
    sigma.flags.writeable = False
    return CommonRandomness(session_id=bytes(session_id), sigma=sigma)


def _point_powers(sp: SymParams, exponents) -> np.ndarray:
    """Matrix P[n, j] = lambda_n ** exponents[j]."""
    cols = [sp.field.pow(sp.lambdas, int(e)) for e in exponents]
    return np.stack(cols, axis=1)


def queries_from_masks(sp: SymParams, theta: int, masks: np.ndarray) -> np.ndarray:
    """Deterministic query assembly from explicit masking coefficients.

    ``masks`` has shape (..., K, N - T, T): one degree-< T polynomial per
    query coordinate, with any leading session axes. Returns the queries
    shaped (..., N, K, N - T). Exposed separately so tests can pin the
    randomness (an all-zero mask still decodes; it only stops hiding) and so
    a batch of sessions is assembled by one product.
    """
    params, field = sp.base, sp.field
    ell, t = sp.message_length, params.T
    if masks.shape[-3:] != (params.K, ell, t):
        raise ParameterError(f"masks must have shape (..., {params.K}, {ell}, {t})")
    lead = masks.shape[:-3]
    low = _point_powers(sp, range(t))                      # (N, T)
    flat = masks.reshape(lead + (params.K * ell, t))
    queries = linalg.matmul(field, low, np.swapaxes(flat, -1, -2)).reshape(
        lead + (params.N, params.K, ell))
    indicator = _point_powers(sp, range(t, t + ell))       # (N, ell)
    queries[..., theta - 1, :] ^= indicator
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


def sym_answer(query: np.ndarray, store: MessageStore, cr: CommonRandomness,
               lambda_n: int) -> int:
    """One database's single-symbol answer."""
    field = store.field
    ell = store.message_length
    q = np.asarray(query, dtype=field.dtype)
    if q.shape != (store.num_messages, ell):
        raise MalformedQueryError(
            f"query shape {q.shape} does not match a ({store.num_messages}, {ell}) store"
        )
    inner = np.bitwise_xor.reduce(field.mul(q, store.messages).ravel())
    mask = 0
    power = 1
    for coeff in cr.sigma.tolist():          # Horner-free: degree is tiny
        mask ^= field.mul(int(coeff), power)
        power = field.mul(power, int(lambda_n))
    return int(inner) ^ mask


@lru_cache(maxsize=64)
def interpolation_matrix(field: GF, n: int) -> np.ndarray:
    """Read-only inverse of the N x N Vandermonde matrix on the public points
    1..N: it maps the N answers to the answer polynomial's coefficients.
    Public and fixed by (field, N), so it is computed once and cached."""
    points = np.arange(1, n + 1, dtype=field.dtype)
    vander = np.stack([field.pow(points, j) for j in range(n)], axis=1)
    inv = linalg.inv_matrix(field, vander)
    inv.flags.writeable = False
    return inv


def sym_answers(sp: SymParams, queries: np.ndarray, store: MessageStore,
                cr: CommonRandomness) -> np.ndarray:
    """All N databases' answers to one session's (N, K, N - T) queries."""
    return np.array([sym_answer(queries[n], store, cr, int(sp.lambdas[n]))
                     for n in range(sp.base.N)], dtype=sp.field.dtype)


def sym_coefficients(answers: np.ndarray, sp: SymParams) -> np.ndarray:
    """All N coefficients of the answer polynomial, by interpolation."""
    params, field = sp.base, sp.field
    a = np.asarray(answers, dtype=field.dtype)
    if a.shape != (params.N,):
        raise ProtocolError(f"need {params.N} answers, got {a.shape}")
    return linalg.matvec(field, interpolation_matrix(field, params.N), a)


def sym_decode(answers: np.ndarray, sp: SymParams) -> np.ndarray:
    """Interpolate the answer polynomial; its top N - T coefficients are the
    desired message."""
    return sym_coefficients(answers, sp)[sp.base.T:]


def sum_shortcut_answer(store: MessageStore) -> np.ndarray:
    """The one-database answer when the client caches all but one message:
    the plain sum of every stored message."""
    return np.bitwise_xor.reduce(store.messages, axis=0)


def cached_sum(side, k: int, theta: int, field: GF) -> np.ndarray:
    """The sum of an all-but-one cache: what the sum shortcut strips from
    the downloaded sum of all K messages.

    Checks first that ``side`` holds exactly the K - 1 messages other than
    ``theta``, all of one length, so a client can refuse a wrong cache
    before it sends anything.
    """
    if not 1 <= theta <= k:
        raise ParameterError(f"desired index {theta} outside 1..{k}")
    side = {int(i): np.asarray(v, dtype=field.dtype) for i, v in side.items()}
    if theta in side:
        raise InvalidSideInformationError("the desired message cannot be cached")
    if set(side) != set(range(1, k + 1)) - {theta}:
        raise InvalidSideInformationError(
            "sum shortcut needs exactly the K-1 other messages cached"
        )
    if len({vec.shape for vec in side.values()}) != 1:
        raise InvalidSideInformationError("cached messages must share one length")
    return np.bitwise_xor.reduce(np.stack(list(side.values())), axis=0)


def sym_sum_shortcut(store: MessageStore, side, theta: int) -> np.ndarray:
    """Rate-1 retrieval for M = K - 1: download the sum from one database
    and strip the cached messages. Consumes no shared randomness."""
    strip = cached_sum(side, store.num_messages, theta, store.field)
    total = sum_shortcut_answer(store)
    if strip.shape != total.shape:
        raise InvalidSideInformationError("cached message has the wrong length")
    return total ^ strip
