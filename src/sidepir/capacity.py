"""Closed-form capacities, rates and symbol counts, in exact rationals.

Everything here is an oracle for the schemes and the auditor: measured rates
are compared against these values with exact equality, never a tolerance, so
all arithmetic uses :class:`fractions.Fraction` and unbounded integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import OverflowLimitError, ParameterError

INFINITE = math.inf

# Exact big-integer arithmetic is guaranteed only up to this message length;
# beyond it the counts stop being a sane desk-scale experiment anyway.
_MAX_MESSAGE_LENGTH = 1 << 40


@dataclass(frozen=True)
class SchemeParams:
    """Problem parameters: K messages on N replicated databases, M of the
    messages cached by the client, privacy against any T colluding databases.

    ``w`` is the symbol width in bits; None lets the scheme pick the smallest
    adequate width.
    """

    K: int
    M: int
    N: int
    T: int
    w: int | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError("need at least one message")
        if not 0 <= self.M < self.K:
            raise ParameterError("cached-message count must satisfy 0 <= M < K")
        if self.N < 1:
            raise ParameterError("need at least one database")
        if not 1 <= self.T <= self.N:
            raise ParameterError("collusion threshold must satisfy 1 <= T <= N")
        if self.w is not None and self.w not in (4, 8, 16):
            raise ParameterError("symbol width must be 4, 8 or 16 bits")

    @property
    def all_but_one_cached(self) -> bool:
        """M = K-1: a plain sum then retrieves the one message left at rate 1."""
        return self.M == self.K - 1

    @property
    def constructible(self) -> bool:
        """Whether the layered scheme exists (T < N, or M = K-1)."""
        return self.T < self.N or self.all_but_one_cached

    def label(self) -> str:
        return f"(K={self.K},M={self.M},N={self.N},T={self.T})"


@dataclass(frozen=True)
class CountProfile:
    """Per-database symbol counts for the layered scheme.

    p1: symbols a database would ship without redundancy removal;
    p2: of those, how many the client already knows from its cache;
    m:  desired-message symbols among the p1;
    L:  message length in symbols.
    """

    p1: int
    p2: int
    m: int
    L: int


def psi(a: Fraction | int, b: int | float) -> Fraction:
    """Inverse truncated geometric sum: 1 / (1 + a + ... + a^(b-1)).

    ``b`` may be math.inf when a < 1, giving 1 - a.
    """
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ParameterError("ratio must lie in (0, 1]")
    if b == INFINITE:
        if a >= 1:
            raise ParameterError("infinite horizon requires ratio < 1")
        return 1 - a
    b = int(b)
    if b < 1:
        raise ParameterError("horizon must be a positive integer or infinity")
    if a == 1:
        return Fraction(1, b)
    # geometric sum: (1 - a^b) / (1 - a)
    return (1 - a) / (1 - a**b)


# the capacities are exact rationals of public parameters, asked for once per
# retrieval: each is computed once per point
@lru_cache(maxsize=256)
def capacity_tpir_psi(p: SchemeParams) -> Fraction:
    """Highest achievable desired-bits-per-downloaded-bit for the setting."""
    return psi(Fraction(p.T, p.N), p.K - p.M)


@lru_cache(maxsize=256)
def capacity_stpir_psi(p: SchemeParams, rho: Fraction | int) -> Fraction:
    """Capacity of the symmetric (database-private) variant.

    ``rho`` is the common randomness available to the databases, in symbols
    per desired-message symbol. Requires K >= 2.
    """
    rho = Fraction(rho)
    if p.K < 2:
        raise ParameterError("symmetric setting is defined for K >= 2 messages")
    if rho < 0:
        raise ParameterError("common randomness amount cannot be negative")
    if p.all_but_one_cached:
        return Fraction(1)
    if p.T == p.N:
        return Fraction(0)
    if rho >= Fraction(p.T, p.N - p.T):
        return 1 - Fraction(p.T, p.N)
    return Fraction(0)


def layer_instances(p: SchemeParams, k: int) -> int:
    """Instances of each k-wise sum type per database, 0^0 taken as 1."""
    if not 1 <= k <= p.K:
        raise ParameterError(f"layer must lie in 1..{p.K}")
    return (p.N - p.T) ** (k - 1) * p.T ** (p.K - k)


def count_profile(p: SchemeParams) -> CountProfile:
    """Evaluate the closed-form counts and confirm the rate identity."""
    K, M, N, T = p.K, p.M, p.N, p.T
    if N**K > _MAX_MESSAGE_LENGTH:
        raise OverflowLimitError(
            f"message length N^K = {N}^{K} exceeds the supported {_MAX_MESSAGE_LENGTH}"
        )
    if T < N:
        p1 = (N**K - T**K) // (N - T)
        p2 = T ** (K - M) * (N**M - T**M) // (N - T)
    else:  # limit of the geometric sums as T -> N
        p1 = K * N ** (K - 1)
        p2 = M * N ** (K - 1)
    m = N ** (K - 1)
    L = N**K
    profile = CountProfile(p1=p1, p2=p2, m=m, L=L)
    rate = Fraction(N * m, N * (p1 - p2))
    if rate != capacity_tpir_psi(p):
        raise AssertionError(
            f"count profile {profile} violates the rate identity for {p.label()}"
        )
    return profile


def desk_grid(k_max: int = 4, n_max: int = 3) -> list[SchemeParams]:
    """The small-parameter sweep used by tests, audits and benchmarks."""
    grid = [
        SchemeParams(K=k, M=m, N=n, T=t)
        for k in range(1, k_max + 1)
        for m in range(k)
        for n in range(2, n_max + 1)
        for t in range(1, n)
    ]
    return grid
