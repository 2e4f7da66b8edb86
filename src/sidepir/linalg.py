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

Every product here is a log-table sum and an antilog gather; Plank,
Greenan and Miller (FAST 2013) name these lookups as the cost of table
arithmetic. The sums go into a preallocated intp scratch and the gather is
one flat ``take`` from it: on a 2-core x86 host a fancy index with int32
sums costs 3.6-4.0 ns a symbol and ``take`` with intp indices 1.1-1.7 ns.
The scratch holds at most ``MATMUL_CHUNK`` bytes, so :func:`matmul` steps
over k, or rows of its left operand when one index of k is larger, and the
elimination's rank-1 update over batch members, or rows when one member's
block is larger. ``GF._log`` stays int32: intp logs would
double every log array the kernels hold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, SingularMatrixError
from .field import GF


# Bytes of the intp index scratch that one step of a product or of an
# elimination update may hold (1 MiB); the antilog gather of the same shape
# adds an eighth (w <= 8) or a quarter (w = 16) of that.
MATMUL_CHUNK = 1 << 20
_INTP = np.dtype(np.intp).itemsize


def _products(field: GF, la, lb, shape, scratch, gathered) -> np.ndarray:
    """The field products whose logs are ``la + lb`` (broadcast to
    ``shape``), as a view of ``gathered``: the int32 logs are summed into
    the intp ``scratch`` and read from the antilog table by one flat
    ``take``."""
    size = math.prod(shape)
    idx = scratch[:size].reshape(shape)
    np.add(la, lb, out=idx)
    out = gathered[:size].reshape(shape)
    # every log sum lies in [0, 4 * order], inside the table; ``clip`` lets
    # ``take`` write into ``out`` without buffering it
    field._alog.take(idx, out=out, mode="clip")
    return out


def matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field; leading batch dimensions broadcast.

    Shapes follow numpy matmul: (..., m, k) @ (..., k, n) -> (..., m, n).
    Each product term is one log-table sum and one antilog gather over a
    (..., m, k, n) temporary, so the contraction runs in steps over k that
    keep that temporary under ``MATMUL_CHUNK`` bytes of intp indices, and
    over rows of ``a`` where one index of k for all rows is larger; peak
    memory is O(m n) per batch member. A small product is a single step.
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    m, k = a.shape[-2:]
    n = b.shape[-1]
    # the batch shape; the general broadcast costs more than a small
    # product, so the callers' cases (one operand's batch shape ends the
    # other's, as equal, unbatched or one-session shapes do) skip it
    lead_a, lead_b = a.shape[:-2], b.shape[:-2]
    lead = (lead_a if lead_b == lead_a[len(lead_a) - len(lead_b):] else
            lead_b if lead_a == lead_b[len(lead_b) - len(lead_a):] else
            np.broadcast_shapes(lead_a, lead_b))
    out = np.zeros(lead + (m, n), dtype=field.dtype)
    per_row = math.prod(lead) * n
    if not k or not m or not per_row:
        return out
    cap = MATMUL_CHUNK // _INTP
    rows = max(1, min(m, cap // per_row))
    step = max(1, min(k, cap // (per_row * rows)))
    size = per_row * rows * step
    scratch, gathered = np.empty(size, dtype=np.intp), np.empty(size, dtype=field.dtype)
    log = field._log
    # one view of out per chunk of rows, updated in place: an indexed ^=
    # would copy each chunk back
    parts = [(r0, out[..., r0:r0 + rows, :]) for r0 in range(0, m, rows)]
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        lb = log.take(b[..., lo:hi, :])[..., None, :, :]
        for r0, part in parts:
            terms = _products(field, log.take(a[..., r0:r0 + rows, lo:hi])[..., :, :, None],
                              lb, part.shape[:-1] + (hi - lo, n), scratch, gathered)
            part ^= np.bitwise_xor.reduce(terms, axis=-2)
    return out


def matvec(field: GF, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a matrix (..., m, k) and vector (..., k)."""
    x = np.asarray(x, dtype=field.dtype)
    return matmul(field, a, x[..., :, None])[..., 0]


def _rank1_update(field: GF, tail: np.ndarray, lmult: np.ndarray,
                  lprow: np.ndarray, scratch, gathered) -> None:
    """``tail ^= mult (x) prow`` for a (B, r, c) tail, from the int32 logs of
    the multipliers (B, r) and of the pivot rows (B, c).

    Runs over chunks of batch members, or of rows when one member's tail
    alone exceeds the scratch, so no step holds more indices than the
    scratch.
    """
    nbatch, r, c = tail.shape
    if not r or not c:
        return
    cap = scratch.size
    if r * c <= cap:
        members, rows = cap // (r * c), r
    else:
        members, rows = 1, max(1, cap // c)
    for b0 in range(0, nbatch, members):
        b1 = min(nbatch, b0 + members)
        for r0 in range(0, r, rows):
            r1 = min(r, r0 + rows)
            tail[b0:b1, r0:r1] ^= _products(
                field, lmult[b0:b1, r0:r1, None], lprow[b0:b1, None, :],
                (b1 - b0, r1 - r0, c), scratch, gathered)


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
    basic slices and no pivot search or row swap. Both paths end in the
    same rank-1 update of the trailing block, :func:`_rank1_update`.
    """
    a = np.array(mats, dtype=field.dtype, copy=True)
    nbatch, n, m = a.shape
    log, alog, order = field._log, field._alog, field._order
    perm = np.tile(np.arange(n), (nbatch, 1))
    piv = np.zeros(nbatch, dtype=np.int64)
    every = np.arange(nbatch)
    row_ids = np.arange(n)
    # the first column's trailing block is the largest; a row of it is the
    # least one step can hold
    size = min(nbatch * max(0, n - 1) * max(0, m - 1), max(MATMUL_CHUNK // _INTP, m))
    scratch, gathered = np.empty(size, dtype=np.intp), np.empty(size, dtype=field.dtype)
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
        lprow = log.take(prow)
        inv_log = (order - lprow[:, 0]) % order
        mult = alog.take(log.take(a[:, lo:, col]) + inv_log[:, None])
        if below is not None:
            mult[~below] = 0
            a[:, lo:, col] = np.where(below, mult, a[:, lo:, col])
        else:
            a[:, lo:, col] = mult
        _rank1_update(field, a[:, lo:, col + 1:], log.take(mult), lprow[:, 1:],
                      scratch, gathered)
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
