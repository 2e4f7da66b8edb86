"""The LU elimination kernel against a scalar-loop reference elimination."""

import math
import tracemalloc

import numpy as np
import pytest

from sidepir import linalg
from sidepir.errors import SingularMatrixError
from sidepir.field import GF, standard_field

WIDTHS = (1, 4, 8, 16)
SHAPES = [(1, 64, 64), (6, 64, 64), (1, 63, 64), (512, 7, 7), (3, 10, 4), (3, 4, 10)]


def make_field(w):
    return GF(1, poly=0b11) if w == 1 else standard_field(w)


class Scalar:
    """Field arithmetic on Python ints, one symbol at a time."""

    def __init__(self, field):
        self.log = field._log.tolist()
        self.alog = field._alog.tolist()
        self.order = field._order

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.alog[(self.log[a] + self.log[b]) % self.order]

    def inv(self, a):
        return self.alog[(self.order - self.log[a]) % self.order]


def reference_eliminate(sc, rows, width):
    """Textbook Gauss-Jordan over the first ``width`` columns of a list of
    int rows; returns (reduced rows, rank)."""
    rows = [list(r) for r in rows]
    piv = 0
    for col in range(width):
        sel = next((r for r in range(piv, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = sc.inv(rows[piv][col])
        rows[piv] = [sc.mul(x, inv) for x in rows[piv]]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r != piv and factor:
                rows[r] = [x ^ sc.mul(factor, y) for x, y in zip(rows[r], rows[piv])]
        piv += 1
    return rows, piv


def reference_rank(sc, mat):
    return reference_eliminate(sc, mat.tolist(), mat.shape[1])[1]


def reference_solve(sc, a, b):
    """x with a @ x = b (b a matrix), or None when a is singular."""
    n = a.shape[0]
    aug = [ra + rb for ra, rb in zip(a.tolist(), b.tolist())]
    rows, rank = reference_eliminate(sc, aug, n)
    if rank < n:
        return None
    return np.array([r[n:] for r in rows], dtype=a.dtype)


def stacks(field, shape, rng):
    """A random stack plus variants that force the general path: members
    with a zero first column, with a duplicated row, and with a zero leading
    entry, each mixed with untouched members in the same stack."""
    base = field.random_symbols(rng, shape)
    yield base
    zero_col = base.copy()
    zero_col[::2, :, 0] = 0
    yield zero_col
    dup = base.copy()
    dup[1::2, -1, :] = dup[1::2, 0, :]
    yield dup
    lead = base.copy()
    lead[-1, 0, 0] = 0
    yield lead


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("w", WIDTHS)
def test_rank_batched_matches_reference(w, shape):
    field = make_field(w)
    sc = Scalar(field)
    for mats in stacks(field, shape, np.random.default_rng(w * 1000 + shape[1])):
        got = linalg.rank_batched(field, mats)
        want = [reference_rank(sc, m) for m in mats]
        assert got.tolist() == want


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[1] == s[2]])
@pytest.mark.parametrize("w", WIDTHS)
def test_factors_reproduce_the_matrix(w, shape):
    """For full-rank members, rows in ``perm`` order equal L @ U."""
    field = make_field(w)
    for mats in stacks(field, shape, np.random.default_rng(w + shape[0])):
        lu, perm, ranks = linalg.lu_batched(field, mats)
        n = shape[1]
        for m, f, p, r in zip(mats, lu, perm, ranks):
            if r < n:
                continue
            lower = np.tril(f, -1) + np.eye(n, dtype=field.dtype)
            assert np.array_equal(linalg.matmul(field, lower, np.triu(f)), m[p])


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[1] == s[2]])
@pytest.mark.parametrize("w", WIDTHS)
def test_solve_and_inverse_match_reference(w, shape):
    field = make_field(w)
    sc = Scalar(field)
    rng = np.random.default_rng(w * 7 + shape[1])
    eye = np.eye(shape[1], dtype=field.dtype)
    for mats in stacks(field, shape, rng):
        for a in mats[sorted({0, 1 % len(mats), len(mats) - 1})]:
            b = field.random_symbols(rng, (shape[1], 2))
            want = reference_solve(sc, a, np.concatenate([b, eye], axis=1))
            if want is None:
                with pytest.raises(SingularMatrixError):
                    linalg.solve(field, a, b[:, 0])
                with pytest.raises(SingularMatrixError):
                    linalg.inv_matrix(field, a)
                continue
            assert np.array_equal(linalg.solve(field, a, b), want[:, :2])
            assert np.array_equal(linalg.solve(field, a, b[:, 0]), want[:, 0])
            assert np.array_equal(linalg.inv_matrix(field, a), want[:, 2:])


def test_solve_raises_on_singular_input():
    f16 = standard_field(16)
    a = f16.random_symbols(np.random.default_rng(3), (5, 5))
    a[4] = f16.mul(a[0], 7) ^ a[2]
    with pytest.raises(SingularMatrixError):
        linalg.solve(f16, a, np.ones(5, dtype=f16.dtype))


# (n, u, whole members, short members)
MIXED_SHAPES = [(8, 4, 2, 5), (9, 3, 1, 5), (6, 6, 2, 2), (7, 1, 3, 4), (64, 32, 1, 5)]


@pytest.mark.parametrize("pad", [0, 1 << 40], ids=["blocks-alone", "padding-updated"])
@pytest.mark.parametrize("w", WIDTHS)
def test_one_loop_over_both_shapes_matches_each_shape_alone(w, pad, monkeypatch):
    """One elimination over whole n x n members and u x n blocks, padded to
    n rows with nonzero junk that must not be read, gives every block the
    rank that an elimination of the blocks alone and the scalar reference
    give, and the whole members the (lu, perm, ranks) of an elimination of
    them alone, whether the blocks' padding is left unread or zeroed and
    updated (``_PAD_SYMBOLS`` forces one mode for every shape). Some members
    of each kind are singular or need a later column for a pivot, so the
    pivoting path runs."""
    monkeypatch.setattr(linalg, "_PAD_SYMBOLS", pad)
    field = make_field(w)
    sc = Scalar(field)
    rng = np.random.default_rng(w + 70)
    for n, u, whole, short in MIXED_SHAPES:
        for mats in stacks(field, (whole + short, n, n), rng):
            blocks = mats[whole:, :u].copy()
            blocks[::2, :, 0] = 0
            if u > 1:
                blocks[1::3, -1] = blocks[1::3, 0]
            padded = mats.copy()
            padded[whole:, :u] = blocks
            padded[whole:, u:] = field.q - 1
            lu, perm, ranks = linalg.lu_batched(field, padded, whole, u)
            alone = linalg.lu_batched(field, mats[:whole])
            assert np.array_equal(lu[:whole], alone[0])
            assert np.array_equal(perm[:whole], alone[1])
            assert ranks[:whole].tolist() == alone[2].tolist()
            assert ranks[whole:].tolist() == linalg.lu_batched(field, blocks)[2].tolist()
            if n < 10:
                assert ranks[whole:].tolist() == [reference_rank(sc, b) for b in blocks]


def broadcast_matmul(field, a, b):
    """The product in one step: one (..., m, k, n) log-sum temporary."""
    la = field._log[a][..., :, :, None]
    lb = field._log[b][..., None, :, :]
    return np.bitwise_xor.reduce(field._alog[la + lb], axis=-2)


# (a, b) shapes; every temporary but the last two exceeds the step bound,
# and each k is prime, so no step from 2 to k-1 divides it
MATMUL_SHAPES = [
    ((7, 40, 53), (7, 53, 45)),        # batched on both sides
    ((18, 13), (64, 2, 13, 27)),       # one generator against a batch of blocks
    ((300, 64, 61), (300, 61, 1)),     # batched matrix-vector
    ((512, 31, 7), (512, 7, 29)),      # short k: steps of one symbol
    ((4, 5), (5, 3)),                  # small: a single step
    ((3, 0), (0, 4)),                  # empty contraction: zeros
]


@pytest.mark.parametrize("shapes", MATMUL_SHAPES, ids=str)
@pytest.mark.parametrize("w", (4, 8, 16))
def test_chunked_matmul_matches_broadcast(w, shapes):
    field = standard_field(w)
    rng = np.random.default_rng(w + sum(map(len, shapes)))
    a = field.random_symbols(rng, shapes[0])
    b = field.random_symbols(rng, shapes[1])
    a.reshape(-1)[::5] = 0  # zero symbols take the log sentinel
    want = broadcast_matmul(field, a, b)
    got = linalg.matmul(field, a, b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    big = want.size * a.shape[-1] * np.dtype(np.intp).itemsize > linalg.MATMUL_CHUNK
    assert big == (shapes not in MATMUL_SHAPES[-2:])


def staggered_stack(field, rng, nbatch=6, n=9):
    """Members that lose their pivot at different columns (column j + 1 a
    copy of column 0 in member j) next to random ones, so that a call runs
    the fast path over the first columns (in all but the smallest fields)
    and the pivoting path from column 3 on."""
    mats = field.random_symbols(rng, (nbatch, n, n))
    for j in range(2, nbatch):
        mats[j, :, j + 1] = mats[j, :, 0]
    return mats


@pytest.mark.parametrize("w", WIDTHS)
def test_chunked_updates_match_reference(w, monkeypatch):
    """A scratch of 40 indices splits the elimination's trailing update over
    rows (a 9x9 member's first tails hold 64 and 49 symbols) and over batch
    members (later tails), a product's contraction into steps of two, and
    a product too wide for one step of k over rows of its left operand."""
    field = make_field(w)
    sc = Scalar(field)
    rng = np.random.default_rng(w + 40)
    shapes = []
    products = linalg._products

    def recording(field, la, lb, shape, scratch, gathered):
        assert math.prod(shape) <= 40
        shapes.append(shape)
        return products(field, la, lb, shape, scratch, gathered)

    monkeypatch.setattr(linalg, "MATMUL_CHUNK", 40 * np.dtype(np.intp).itemsize)
    monkeypatch.setattr(linalg, "_products", recording)
    for mats in (staggered_stack(field, rng), *stacks(field, (6, 9, 9), rng)):
        lu, perm, ranks = linalg.lu_batched(field, mats)
        assert ranks.tolist() == [reference_rank(sc, m) for m in mats]
        for m, f, p, r in zip(mats, lu, perm, ranks):
            if r == 9:
                lower = np.tril(f, -1) + np.eye(9, dtype=field.dtype)
                assert np.array_equal(broadcast_matmul(field, lower, np.triu(f)), m[p])
    assert any(s[1] < 8 for s in shapes if s[0] == 1)  # row chunks
    assert any(1 < s[0] < 6 for s in shapes)  # batch chunks
    # steps of two over a prime k: the last step is one symbol wide
    a = field.random_symbols(rng, (2, 2, 11))
    b = field.random_symbols(rng, (2, 11, 5))
    shapes.clear()
    assert np.array_equal(linalg.matmul(field, a, b), broadcast_matmul(field, a, b))
    assert [s[-2] for s in shapes] == [2] * 5 + [1]
    # one index of k over all nine rows (90 indices) exceeds the scratch:
    # steps of one, each over chunks of four rows
    a = field.random_symbols(rng, (2, 9, 3))
    b = field.random_symbols(rng, (2, 3, 5))
    shapes.clear()
    assert np.array_equal(linalg.matmul(field, a, b), broadcast_matmul(field, a, b))
    assert [s[1:3] for s in shapes] == [(4, 1), (4, 1), (1, 1)] * 3


def peak_bytes(fn):
    """Peak bytes that ``fn`` allocates over what was live when it started,
    and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_kernels_hold_their_outputs_and_the_byte_bound():
    """The elimination of a user-privacy audit's stack and a large product
    hold their outputs, one ``MATMUL_CHUNK`` of indices with its gather,
    and the small per-column or per-step arrays; not a temporary of the
    whole trailing block or contraction."""
    f8, f16 = standard_field(8), standard_field(16)
    rng = np.random.default_rng(11)
    mats = f8.random_symbols(rng, (1536, 27, 27))
    mats[::2, :, 0] = 0  # the pivoting path from the first column
    peak, (lu, perm, ranks) = peak_bytes(lambda: linalg.lu_batched(f8, mats))
    outputs = lu.nbytes + perm.nbytes + ranks.nbytes
    budget = linalg.MATMUL_CHUNK * (1 + f8.dtype(0).itemsize / 8)
    # per column a few (B, n) index, mask and row-swap arrays
    per_column = 32 * mats.shape[0] * mats.shape[1]
    assert peak <= outputs + budget + per_column

    # a long contraction, and one whose single index of k exceeds the scratch
    for a_shape, b_shape in (((8, 64, 256), (8, 256, 64)), ((64, 64, 3), (64, 3, 64))):
        a = f16.random_symbols(rng, a_shape)
        b = f16.random_symbols(rng, b_shape)
        peak, out = peak_bytes(lambda: linalg.matmul(f16, a, b))
        budget = linalg.MATMUL_CHUNK * (1 + f16.dtype(0).itemsize / 8)
        # the output, each step's sum over k, and each step's slices of logs
        assert peak <= 2 * out.nbytes + budget + (128 << 10)
