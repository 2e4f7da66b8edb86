"""Dense linear algebra over GF(2^w).

All routines operate on numpy arrays of field symbols and take the field as
their first argument. The batched variants run one Gauss-Jordan elimination
across a stack of matrices simultaneously; they exist because the audits
process hundreds of thousands of independent sessions, and because a client
checks all K mixers of a retrieval in one call.

Elimination is the expensive kernel, so the schemes run it only on private
matrices (mixer rank checks and the desired-mixer solve). Systems whose
matrix is public and fixed (information sets of the MDS generators, the
interpolation matrix) are inverted once into bounded ``lru_cache`` helpers in
``coding`` and ``stpir_psi`` and applied with :func:`matvec`. Those caches
hold no mixer or message and are read only while decoding, after the
queries were sent, so they change neither queries nor their timing.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
from .field import GF


def matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field; leading batch dimensions broadcast.

    Shapes follow numpy matmul: (..., m, k) @ (..., k, n) -> (..., m, n).
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    la = field._log[a][..., :, :, None]
    lb = field._log[b][..., None, :, :]
    return np.bitwise_xor.reduce(field._alog[la + lb], axis=-2)


def matvec(field: GF, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a matrix (..., m, k) and vector (..., k)."""
    x = np.asarray(x, dtype=field.dtype)
    return matmul(field, a, x[..., :, None])[..., 0]


def _gauss_jordan(field: GF, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gauss-Jordan over the first min(n, m) columns.

    ``mats`` has shape (B, n, m); columns past n are carried along untouched
    by pivot selection (augmented systems). Returns (reduced copy, ranks).
    Each pivot step touches only the columns from the pivot column on.
    """
    a = np.array(mats, dtype=field.dtype, copy=True)
    nbatch, n, m = a.shape
    log, alog, order = field._log, field._alog, field._order
    piv = np.zeros(nbatch, dtype=np.int64)
    row_ids = np.arange(n)
    for col in range(min(n, m)):
        colv = a[:, :, col]
        cand = (colv != 0) & (row_ids[None, :] >= piv[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        sel = np.argmax(cand[b], axis=1)
        dst = piv[b]
        # rows at or past the pivot count are zero left of col, so the swap,
        # the scale and the update (a multiple of the pivot row) leave
        # columns < col unchanged everywhere
        tmp = a[b, dst, col:].copy()
        a[b, dst, col:] = a[b, sel, col:]
        a[b, sel, col:] = tmp
        prow = a[b, dst, col:]
        inv_log = (order - log[prow[:, 0]]) % order
        prow = alog[log[prow] + inv_log[:, None]]
        a[b, dst, col:] = prow
        factors = a[b, :, col].copy()
        factors[np.arange(len(b)), dst] = 0
        a[b, :, col:] ^= alog[log[factors][:, :, None] + log[prow][:, None, :]]
        piv[b] += 1
    return a, piv


def rank_batched(field: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, n, m) stack of matrices."""
    mats = np.asarray(mats, dtype=field.dtype)
    nbatch, n, m = mats.shape
    if m > n:
        # eliminate over the wider axis by transposing (rank is symmetric)
        mats = np.swapaxes(mats, 1, 2)
        n, m = m, n
    _, piv = _gauss_jordan(field, mats)
    return piv


def rank(field: GF, mat: np.ndarray) -> int:
    return int(rank_batched(field, np.asarray(mat)[None])[0])


def solve(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for invertible square a; b may be a vector or matrix."""
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    n = a.shape[0]
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    aug, piv = _gauss_jordan(field, np.concatenate([a, rhs], axis=1)[None])
    if int(piv[0]) < n:
        raise SingularMatrixError(f"{n}x{n} system has rank {int(piv[0])}")
    x = aug[0, :, n:]
    return x[:, 0] if vector else x


def inv_matrix(field: GF, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=field.dtype)
    return solve(field, a, np.eye(a.shape[0], dtype=field.dtype))
