"""MDS (Reed-Solomon) generator matrices and full-rank matrix sampling.

Generators are deterministic Vandermonde matrices on the evaluation points
0..e-1 (in field encoding), so every process reconstructs the same matrix
from (e, f, field) with no negotiation. The systematic variant places the
identity block on the LAST f rows; rows 0..e-f-1 are parity.

Only erasure decoding is provided (no error correction): a decoder holding
f coordinates of a codeword applies the inverse of the generator's rows at
those coordinates, its information set. Generators are public and fixed by
(e, f, field), so that inverse is computed once per information set and
cached. Checking surplus coordinates is the decoder's business:
``tpir_psi.decode_streams`` cross-checks raw answers against the cached slots.

Each generator is checked once, when it is built, for the MDS property the
redundancy removal relies on: every f-row subset (e <= 12) or 24 random ones
must be invertible. The subsets go through one bounded batched rank,
:func:`linalg.rank_batched` over stacks of at most ``linalg.MATMUL_CHUNK``
bytes, not one elimination each, since every process that builds a layered
code pays this check before its first answer.

Mixers are drawn by rejection sampling, one session per random source, and
every source of a batch is checked by one elimination a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from . import linalg
from .errors import FieldTooSmallError, ParameterError
from .field import GF

# Exhaustive minor verification is affordable up to this code length; longer
# codes are spot-checked with random row subsets.
_EXHAUSTIVE_MDS_LIMIT = 12
_SPOT_CHECK_SUBSETS = 24


@dataclass(frozen=True)
class GeneratorMatrix:
    """An (e, f) MDS generator: every f-row submatrix is invertible."""

    field: GF
    entries: np.ndarray  # shape (e, f), read-only
    systematic: bool

    @property
    def length(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def __repr__(self):
        tag = "systematic " if self.systematic else ""
        return f"GeneratorMatrix({tag}{self.length}x{self.dim}, GF(2^{self.field.w}))"


def _vandermonde(e: int, f: int, field: GF) -> np.ndarray:
    points = np.arange(e, dtype=field.dtype)
    cols = [np.ones(e, dtype=field.dtype)]
    for _ in range(f - 1):
        cols.append(field.mul(cols[-1], points))
    return np.stack(cols, axis=1)


def _verify_mds(field: GF, entries: np.ndarray) -> None:
    """Raise on the first singular f-row subset, in the order the subsets
    are drawn; each :func:`linalg.rank_batched` call stacks at most
    ``linalg.MATMUL_CHUNK`` bytes of them, or one when a single subset is
    larger."""
    e, f = entries.shape
    if e <= _EXHAUSTIVE_MDS_LIMIT:
        subsets = combinations(range(e), f)
    else:
        rng = np.random.default_rng(0)
        subsets = (
            tuple(rng.choice(e, size=f, replace=False))
            for _ in range(_SPOT_CHECK_SUBSETS)
        )
    per_call = max(1, linalg.MATMUL_CHUNK // entries[:f].nbytes)
    while chunk := list(islice(subsets, per_call)):
        ranks = linalg.rank_batched(field, entries[np.array(chunk)])
        singular = np.flatnonzero(ranks != f)
        if singular.size:
            raise ParameterError(
                f"({e},{f}) generator lost the MDS property on rows {chunk[singular[0]]}"
            )


def _check_dims(e: int, f: int, field: GF) -> None:
    if not 1 <= f <= e:
        raise ParameterError(f"need 1 <= dimension <= length, got ({e},{f})")
    if e > field.q:
        raise FieldTooSmallError(
            f"code length {e} needs {e} distinct evaluation points but "
            f"GF(2^{field.w}) has only {field.q}",
            min_width=next((w for w in (4, 8, 16) if (1 << w) >= e), None),
        )


@lru_cache(maxsize=None)
def make_mds(e: int, f: int, field: GF) -> GeneratorMatrix:
    """Deterministic (e, f) Reed-Solomon generator (not systematic)."""
    _check_dims(e, f, field)
    entries = _vandermonde(e, f, field)
    _verify_mds(field, entries)
    entries.flags.writeable = False
    return GeneratorMatrix(field=field, entries=entries, systematic=False)


@lru_cache(maxsize=None)
def make_systematic_mds(e: int, f: int, field: GF) -> GeneratorMatrix:
    """Deterministic systematic (e, f) generator; last f rows are identity."""
    _check_dims(e, f, field)
    vander = _vandermonde(e, f, field)
    tail_inv = linalg.inv_matrix(field, vander[e - f:, :])
    entries = linalg.matmul(field, vander, tail_inv)
    _verify_mds(field, entries)
    entries.flags.writeable = False
    return GeneratorMatrix(field=field, entries=entries, systematic=True)


@lru_cache(maxsize=1024)
def _information_set_inverse(e: int, f: int, field: GF, systematic: bool,
                             rows: tuple[int, ...]) -> np.ndarray:
    make = make_systematic_mds if systematic else make_mds
    inv = linalg.inv_matrix(field, make(e, f, field).entries[list(rows), :])
    inv.flags.writeable = False
    return inv


def information_set_inverse(g: GeneratorMatrix, rows) -> np.ndarray:
    """Read-only inverse of the f x f submatrix of ``g`` on ``rows``.

    Cached on (e, f, field, systematic, rows): the generator is public and
    fixed by its dimensions, so the inverse is too. The rows a decoder holds
    follow from the query structure and its own cached set; the cache lives
    in the decoding process and holds no mixer or message.
    """
    return _information_set_inverse(g.length, g.dim, g.field, g.systematic,
                                    tuple(int(r) for r in rows))


def sample_candidates(n: int, field: GF, rngs, blocks=(), rows: int | None = None) -> np.ndarray:
    """One uniform n x n candidate per source of ``rngs``, then one uniform
    ``rows`` x n block per source of ``blocks``, drawn and stacked in that
    order into (len(rngs) + len(blocks), n, n); a block's rows from
    ``rows`` on are left unset."""
    rngs, blocks = list(rngs), list(blocks)
    out = np.empty((len(rngs) + len(blocks), n, n), dtype=field.dtype)
    for j, rng in enumerate(rngs):
        out[j] = field.random_symbols(rng, (n, n))
    for j, rng in enumerate(blocks, len(rngs)):
        out[j, :rows] = field.random_symbols(rng, (rows, n))
    return out


def sample_full_rank_factored(n: int, field: GF, rngs, blocks: int = 0, rows: int | None = None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per random source of ``rngs``, by rejection sampling, a uniform
    invertible n x n matrix with the LU factors of its rank check, then
    ``blocks`` uniform full-rank ``rows`` x n blocks (rows <= n).

    Each round draws a candidate matrix for each source that lacks one, then,
    source by source, a candidate for each block a source lacks, and checks
    them all with one :func:`linalg.lu_batched` elimination that reads only a
    block's ``rows`` rows. A source keeps its full-rank candidates in draw
    order, so its draw, and its end state, do not depend on the batch; a
    source passed twice is refused. Returns ``(mats, lu, perm, blocks)``
    shaped (B, n, n), (B, n, n), (B, n) and (B, blocks, rows, n), with
    ``(lu[i], perm[i])`` ready for :func:`linalg.lu_solve` against ``mats[i]``.
    """
    rngs, rows = list(rngs), n if rows is None else rows
    count = len(rngs)
    if len({id(rng) for rng in rngs}) != count:
        raise ParameterError("a random source draws one session; one was passed twice")
    out = np.empty((count, n, n), dtype=field.dtype)
    lu = np.empty_like(out)
    perm = np.empty((count, n), dtype=np.int64)
    got = np.empty((count, blocks, rows, n), dtype=field.dtype)
    lacking = np.arange(count)  # the sources still without a matrix
    have = np.zeros(count, dtype=np.int64)  # each source's full-rank blocks
    while lacking.size or (have < blocks).any():
        owner = np.repeat(np.arange(count), blocks - have)
        whole = lacking.size
        cand = sample_candidates(n, field, [rngs[i] for i in lacking],
                                 [rngs[i] for i in owner], rows)
        cand_lu, cand_perm, ranks = linalg.lu_batched(field, cand, whole, rows)
        ok = np.flatnonzero(ranks[:whole] == n)
        dest, lacking = lacking[ok], lacking[ranks[:whole] != n]
        out[dest], lu[dest], perm[dest] = cand[ok], cand_lu[ok], cand_perm[ok]
        full = np.flatnonzero(ranks[whole:] == rows)
        owner = owner[full]
        # a source's k-th full-rank block of the round is its block have + k
        k = np.arange(owner.size) - np.searchsorted(owner, owner)
        got[owner, have[owner] + k] = cand[whole + full, :rows]
        have += np.bincount(owner, minlength=count)
    return out, lu, perm, got
