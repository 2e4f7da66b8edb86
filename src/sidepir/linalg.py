"""Dense linear algebra over GF(2^w).

All routines operate on numpy arrays of field symbols and take the field as
their first argument. There is one elimination kernel, :func:`lu_batched`:
forward elimination with row pivoting across a stack of matrices at once.
It is batched because the audits process hundreds of thousands of
independent sessions, and because a client checks all K mixers of a
retrieval in one call. :func:`rank_batched` counts its pivots;
:func:`solve` and :func:`inv_matrix` add the triangular substitution of
:func:`lu_solve`. The rank check of the mixers hands the desired mixer's
factors on, so decoding a retrieval needs only substitution and no second
elimination.

Elimination is the expensive kernel, so the schemes run it only on private
matrices (the mixer rank check). Systems whose matrix is public and fixed
(information sets of the MDS generators, the interpolation matrix) are
inverted once into bounded ``lru_cache`` helpers in ``coding`` and
``stpir_psi`` and applied with :func:`matvec`. Those caches hold no mixer or
message and are read only while decoding, after the queries were sent, so
they change neither queries nor their timing.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, SingularMatrixError
from .field import GF


# Symbols of the int32 (..., m, k, n) log-sum temporary that one step of
# :func:`matmul` may hold: about 1 MiB, plus its antilog gather.
MATMUL_CHUNK = 1 << 18


def matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field; leading batch dimensions broadcast.

    Shapes follow numpy matmul: (..., m, k) @ (..., k, n) -> (..., m, n).
    Each product term is one log-table sum and one antilog gather over a
    (..., m, k, n) temporary, so the contraction runs in steps over k that
    keep that temporary under ``MATMUL_CHUNK`` symbols and peak memory
    O(m n) per batch member. A small product is a single step.
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    m, k = a.shape[-2:]
    n = b.shape[-1]
    # an operand's size times the other's free dimension is the temporary's
    # size whenever that operand carries the full batch shape, as in every
    # caller; no broadcast of the shapes is needed to find it
    temp = max(a.size * n, b.size * m)
    step = max(1, k * MATMUL_CHUNK // temp) if temp else 1
    la = field._log[a][..., :, :, None]
    lb = field._log[b][..., None, :, :]
    out = np.bitwise_xor.reduce(
        field._alog[la[..., :step, :] + lb[..., :step, :]], axis=-2)
    for lo in range(step, k, step):
        out ^= np.bitwise_xor.reduce(
            field._alog[la[..., lo:lo + step, :] + lb[..., lo:lo + step, :]], axis=-2)
    return out


def matvec(field: GF, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a matrix (..., m, k) and vector (..., k)."""
    x = np.asarray(x, dtype=field.dtype)
    return matmul(field, a, x[..., :, None])[..., 0]


def lu_batched(field: GF, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched forward elimination with row pivoting over the first min(n, m)
    columns of a (B, n, m) stack.

    Returns ``(lu, perm, ranks)``. Each pivot row is the first row at or
    below the pivot count with a nonzero entry in the column; rows are
    swapped whole, so for a member of full rank n = m the rows of the input
    in ``perm`` order equal L @ U, where U is the upper triangle of ``lu``
    and L the unit lower triangle whose multipliers sit below its diagonal.
    For rank-deficient members only ``ranks`` is meaningful.

    While every member has had a pivot in each column so far and has a
    nonzero diagonal entry at the current one, the column is eliminated with
    basic slices and no pivot search or row swap.
    """
    a = np.array(mats, dtype=field.dtype, copy=True)
    nbatch, n, m = a.shape
    log, alog, order = field._log, field._alog, field._order
    perm = np.tile(np.arange(n), (nbatch, 1))
    piv = np.zeros(nbatch, dtype=np.int64)
    every = np.arange(nbatch)
    row_ids = np.arange(n)
    full = True  # piv == col for every member
    for col in range(min(n, m)):
        if full and a[:, col, col].all():
            lo, below = col + 1, None
            prow = a[:, col, col:]
            piv += 1
        else:
            cand = (a[:, :, col] != 0) & (row_ids >= piv[:, None])
            has = cand.any(axis=1)
            sel = np.where(has, np.argmax(cand, axis=1), piv)
            a[every, sel], a[every, piv] = a[every, piv], a[every, sel]
            perm[every, sel], perm[every, piv] = perm[every, piv], perm[every, sel]
            lo = int(piv.min()) + 1
            below = (row_ids[None, lo:] > piv[:, None]) & has[:, None]
            prow = a[every, piv, col:]
            piv += has
            full = full and bool(has.all())
        # a member without a pivot has prow[:, 0] == 0; its log sentinel
        # gives a finite inv_log and ``below`` zeroes its multipliers
        inv_log = (order - log[prow[:, 0]]) % order
        mult = alog[log[a[:, lo:, col]] + inv_log[:, None]]
        if below is not None:
            mult[~below] = 0
            a[:, lo:, col] = np.where(below, mult, a[:, lo:, col])
        else:
            a[:, lo:, col] = mult
        a[:, lo:, col + 1:] ^= alog[log[mult][:, :, None] + log[prow[:, None, 1:]]]
    return a, perm, piv


def lu_solve(field: GF, lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b from the factors ``(lu, perm)`` that :func:`lu_batched`
    gave for one invertible square ``a``; b may be a vector or a matrix."""
    b = np.asarray(b, dtype=field.dtype)
    n = lu.shape[0]
    log, alog, order = field._log, field._alog, field._order
    loglu = log[lu]
    inv_diag = (order - loglu.diagonal()) % order
    # cols[j] is column j of log(lu), shaped to broadcast against a row of b
    cols = np.ascontiguousarray(loglu.T)[(...,) + (None,) * (b.ndim - 1)]
    y = b[perm]
    for j in range(n - 1):
        y[j + 1:] ^= alog[cols[j, j + 1:] + log[y[j]]]
    for j in range(n - 1, -1, -1):
        y[j] = alog[log[y[j]] + inv_diag[j]]
        y[:j] ^= alog[cols[j, :j] + log[y[j]]]
    return y


def rank_batched(field: GF, mats: np.ndarray, *, factors: bool = False):
    """Ranks of a (B, n, m) stack of matrices, by :func:`lu_batched`.

    With ``factors=True`` returns ``(ranks, lu, perm)`` instead, for callers
    that go on to solve with the full-rank members; that needs n >= m.
    """
    mats = np.asarray(mats, dtype=field.dtype)
    if mats.shape[2] > mats.shape[1]:
        if factors:
            raise ParameterError("factors of a wide stack are not computed")
        # eliminate over the shorter axis by transposing (rank is symmetric)
        mats = np.swapaxes(mats, 1, 2)
    lu, perm, ranks = lu_batched(field, mats)
    return (ranks, lu, perm) if factors else ranks


def rank(field: GF, mat: np.ndarray) -> int:
    return int(rank_batched(field, np.asarray(mat)[None])[0])


def solve(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for invertible square a; b may be a vector or matrix."""
    a = np.asarray(a, dtype=field.dtype)
    n = a.shape[0]
    lu, perm, ranks = lu_batched(field, a[None])
    if int(ranks[0]) < n:
        raise SingularMatrixError(f"{n}x{n} system has rank {int(ranks[0])}")
    return lu_solve(field, lu[0], perm[0], b)


def inv_matrix(field: GF, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=field.dtype)
    return solve(field, a, np.eye(a.shape[0], dtype=field.dtype))
