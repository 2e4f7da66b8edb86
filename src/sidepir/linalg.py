"""Dense linear algebra over GF(2^w).

All routines operate on numpy arrays of field symbols and take the field as
their first argument. There is one elimination kernel, :func:`lu_batched`:
forward elimination with row pivoting across a stack of matrices at once.
It is batched because the audits process hundreds of thousands of
independent sessions, and because a client checks a retrieval's mixers in
one call. Those have two shapes: an L x L mixer, whose factors decoding
needs, and K - 1 u x L blocks (u = L*T/N), whose ranks alone matter. A
block with a pivot in each column of its leading u x u square has full row
rank, so the kernel takes them as one stack of L x L members, each block's
square copied into its member's bottom-right corner, and eliminates both
shapes in one column loop with one update a column: columns below L - u
update the whole members, later ones every member with the same slices,
since a block's square then fills a whole member's trailing rows and
columns. A block whose square lacks a pivot (about 1/(q - 1) of them) is
eliminated again at full width in the same call. While no whole member is
rank-deficient, a column runs on basic slices: only the members with a
zero diagonal entry search their rows for a pivot and swap it up, so a
large stack, where some member meets a zero at almost every column, keeps
that path.
:func:`rank_batched` counts its pivots; :func:`solve` and
:func:`inv_matrix` add the triangular substitution of :func:`lu_solve`.
The rank check of the mixers hands the desired mixer's factors on, so
decoding a retrieval needs only substitution and no second elimination.

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

from .errors import SingularMatrixError
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
    memory is O(m n) per batch member. A product that fits one step is its
    log sum, gather and XOR reduce alone.
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
    per_row = math.prod(lead) * n
    cap = MATMUL_CHUNK // _INTP
    log = field._log
    if per_row * m * k <= cap:
        # one step: no output to fill or add to (an empty contraction
        # reduces to zeros)
        size = per_row * m * k
        terms = _products(field, log.take(a)[..., :, :, None], log.take(b)[..., None, :, :],
                          lead + (m, k, n), np.empty(size, dtype=np.intp),
                          np.empty(size, dtype=field.dtype))
        return np.bitwise_xor.reduce(terms, axis=-2)
    out = np.zeros(lead + (m, n), dtype=field.dtype)
    rows = max(1, min(m, cap // per_row))
    step = max(1, min(k, cap // (per_row * rows)))
    size = per_row * rows * step
    scratch, gathered = np.empty(size, dtype=np.intp), np.empty(size, dtype=field.dtype)
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


def lu_batched(field: GF, mats: np.ndarray, whole: int | None = None,
               rows: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched forward elimination with row pivoting over a (B, n, m) stack.

    Returns ``(lu, perm, ranks)``. Each pivot row is the first row at or
    below the pivot count with a nonzero entry in the column; rows are
    swapped whole, so for a member of full rank n = m the rows of the input
    in ``perm`` order equal L @ U, where U is the upper triangle of ``lu``
    and L the unit lower triangle whose multipliers sit below its diagonal.
    The columns run on past min(n, m) while a member lacks pivots, so
    ``ranks`` is exact for every shape; for rank-deficient members only it
    is meaningful.

    With ``rows`` given (and n <= m), only the first ``whole`` members are
    n x m; the others are short, ``rows`` x m blocks padded to n rows, and
    only their ranks are meaningful. A block's padding is never read: its
    leading ``rows`` x ``rows`` square is copied into the bottom-right
    corner of a zeroed member and eliminated there, so a column from
    n - ``rows`` on is one update of the same slices of every member, and
    an earlier one updates the whole members only. A pivot in each column
    of the square gives the block full row rank; a block that lacks one is
    eliminated again at full width from its input rows, in this call.

    While no whole member has lacked a pivot, a column is eliminated with
    basic slices: only the members with a zero diagonal entry search their
    own rows below it, and swap the first nonzero one up; a block without
    one takes a stand-in pivot of 1 and is eliminated again. Otherwise
    each member searches its own rows, with masks for the members whose
    pivots ran out. Both paths end in the same update of the rows below the
    pivots, :func:`_eliminate`: one outer product that writes the
    multipliers and eliminates the column at once.
    """
    mats = np.asarray(mats)
    nbatch, n, m = mats.shape
    whole, rows = (nbatch, n) if rows is None else (whole, rows)
    off = n - rows
    # a block is zeros around its square, so the pivoting path, whose
    # slices start at the lowest pivot count, reads zeros there
    a = np.zeros(mats.shape, dtype=field.dtype)
    a[:whole] = mats[:whole]
    a[whole:, off:, off:n] = mats[whole:, :rows, :rows]
    perm, ranks, again = _forward(field, a, whole, off)
    ranks[whole:] = rows
    if again.size:
        # those blocks alone, from their input rows, are a stack of whole
        # rows x m members
        ranks[again] = _forward(field, np.asarray(mats[again, :rows], dtype=field.dtype),
                                again.size, 0)[1]
    return a, perm, ranks


def _forward(field: GF, a: np.ndarray, whole: int,
             off: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column loop of :func:`lu_batched` on its working stack ``a``, in
    place; the members from ``whole`` on are blocks, eliminated on their
    squares in rows and columns ``off`` to n. Returns ``(perm, ranks,
    again)``: the blocks in ``again`` lack a pivot in their squares, so
    their ranks are still to be found."""
    nbatch, n, m = a.shape
    log, order = field._log, field._order
    perm = np.tile(np.arange(n), (nbatch, 1))
    piv = np.zeros(nbatch, dtype=np.int64)
    stand_in = np.zeros(nbatch, dtype=bool)
    every = np.arange(nbatch)
    row_ids = np.arange(n)
    # the first column's block is the largest; a row of it is the least one
    # step can hold
    size = min(nbatch * max(0, n - 1) * m, max(MATMUL_CHUNK // _INTP, m))
    scratch, gathered = np.empty(size, dtype=np.intp), np.empty(size, dtype=field.dtype)
    # while ``full``, every whole member has had a pivot in each column so
    # far, and so has each block on its square but those of ``stand_in``;
    # ``piv`` is brought up to date only when that is not known
    full = True
    for col in range(m):
        if full and col >= n:
            break
        # members with this column: the whole ones, and the blocks on their
        # squares' columns; a stack of blocks alone has none before those
        live = nbatch if off <= col < n else whole
        if not live:
            continue
        if full and (np.count_nonzero(a[:live, col, col]) == live
                     or _pivots_in_place(a, perm, col, live, whole, stand_in)):
            lo, below = col + 1, None
            # each inverse pivot log lies in [1, order], so a sum with it
            # stays inside the antilog table
            lprow = log.take(a[:live, col, col:])
            lscaled = _scaled_pivot_rows(field, lprow, order - lprow[:, :1])
        else:
            if full:
                piv[:whole], piv[whole:] = col, max(col, off)
                full = False
            # each member's candidates: its own rows at or below its pivot count
            ids, lpiv = every[:live], piv[:live]
            cand = (a[:live, :, col] != 0) & (row_ids >= lpiv[:, None])
            has = cand.any(axis=1)
            # a member without a pivot swaps row 0 with itself
            sel = np.where(has, np.argmax(cand, axis=1), 0)
            top = np.where(has, lpiv, 0)
            a[ids, sel], a[ids, top] = a[ids, top], a[ids, sel]
            perm[ids, sel], perm[ids, top] = perm[ids, top], perm[ids, sel]
            lo = int(lpiv.min()) + 1
            below = (row_ids[None, lo:] > lpiv[:, None]) & has[:, None]
            # a member without a pivot scales by its row 0, and ``below``
            # keeps its rows as they are
            lprow = log.take(a[ids, top, col:])
            lscaled = _scaled_pivot_rows(field, lprow, (order - lprow[:, :1]) % order)
            lpiv += has
        _eliminate(field, a[:live, lo:, col:], lscaled, below, scratch, gathered)
    if full:
        piv[:] = min(n, m)
    again = whole + np.flatnonzero(stand_in[whole:] | (piv[whole:] < n))
    return perm, piv, again


def _pivots_in_place(a, perm, col, live, whole, stand_in) -> bool:
    """Bring a pivot to the diagonal at column ``col`` of each of the first
    ``live`` members that has a zero there: the first row below it with a
    nonzero entry in the column is swapped up. A block without one takes a
    stand-in pivot of 1 and is marked in ``stand_in``. Changes nothing and
    returns False when a whole member has none."""
    zero = np.flatnonzero(a[:live, col, col] == 0)
    cand = a[zero, col:, col] != 0
    has = cand.any(axis=1)
    lost = zero[~has]
    # ``zero`` is sorted and the whole members come first
    if lost.size and lost[0] < whole:
        return False
    got, sel = zero[has], col + np.argmax(cand[has], axis=1)
    a[got, col], a[got, sel] = a[got, sel], a[got, col]
    perm[got, col], perm[got, sel] = perm[got, sel], perm[got, col]
    a[lost, col, col] = 1
    stand_in[lost] = True
    return True


def _scaled_pivot_rows(field: GF, lprow: np.ndarray, inv_log: np.ndarray) -> np.ndarray:
    """The logs of the pivot rows (B, c), given by their logs ``lprow``,
    divided by their pivots, whose inverse logs are ``inv_log`` (B, 1); at
    the pivot the entry is 1 + 1/pivot in place of 1. A row x whose head
    is x0 then becomes ``x + x0 * scaled``: its head turns into the
    multiplier x0/pivot and the rest takes the elimination update."""
    alog = field._alog
    scaled = alog.take(lprow + inv_log)
    scaled[:, 0] ^= alog.take(inv_log[:, 0])
    return field._log.take(scaled)


def _eliminate(field: GF, block: np.ndarray, lscaled: np.ndarray, below,
               scratch, gathered) -> None:
    """One column's elimination of the rows in ``block``, a (B, r, c) view
    whose column 0 lies under the pivots: ``block ^= head (x) scaled``, the
    head column's outer product with the scaled pivot rows, whose logs
    ``lscaled`` (B, c) :func:`_scaled_pivot_rows` gives. Where the (B, r)
    mask ``below`` is given, only its rows change.

    That is one step when it fits the scratch, else it runs over chunks of
    members, or of rows when one member's part alone is larger, so no step
    holds more indices than the scratch.
    """
    nbatch, r, c = block.shape
    if not r:
        return
    lhead = field._log.take(block[:, :, 0])
    if below is not None:
        lhead[~below] = field._log[0]
    lhead, lscaled, cap = lhead[:, :, None], lscaled[:, None, :], scratch.size
    if nbatch * r * c <= cap:
        block ^= _products(field, lhead, lscaled, block.shape, scratch, gathered)
        return
    members, rows = (cap // (r * c), r) if r * c <= cap else (1, max(1, cap // c))
    for b0 in range(0, nbatch, members):
        for r0 in range(0, r, rows):
            part = block[b0:b0 + members, r0:r0 + rows]
            part ^= _products(field, lhead[b0:b0 + members, r0:r0 + rows],
                              lscaled[b0:b0 + members], part.shape, scratch, gathered)


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


def rank_batched(field: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, n, m) stack of matrices, by :func:`lu_batched`."""
    return lu_batched(field, np.asarray(mats, dtype=field.dtype))[2]


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
