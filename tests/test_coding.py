"""MDS generators, erasure decoding, full-rank sampling.

Erasure decoding is tested on the path the layered decoder runs: the cached
information-set inverse applied with one ``linalg.matvec``. It is
cross-checked against a row-reduction solver written here from scratch on
scalar field ops, so the two routes share no code.
"""

import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from sidepir import coding, linalg
from sidepir.errors import FieldTooSmallError
from sidepir.field import GF, standard_field


def naive_solve(field, rows, values):
    """Independent oracle: textbook Gauss-Jordan with scalar ops only."""
    n = len(rows)
    m = len(rows[0])
    aug = [[int(x) for x in row] + [int(v)] for row, v in zip(rows, values)]
    piv = 0
    for col in range(m):
        sel = next((r for r in range(piv, n) if aug[r][col]), None)
        if sel is None:
            continue
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = field.inv(aug[piv][col])
        aug[piv] = [field.mul(x, inv) for x in aug[piv]]
        for r in range(n):
            if r != piv and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x ^ field.mul(factor, y) for x, y in zip(aug[r], aug[piv])]
        piv += 1
    assert piv == m, "oracle needs a full-rank system"
    return np.array([aug[r][m] for r in range(m)], dtype=field.dtype)


def encode(g, x):
    return linalg.matvec(g.field, g.entries, x)


def decode(g, rows, y):
    """The information vector from the codeword ``y`` at ``rows``, an
    information set of ``g``: its cached inverse times those coordinates."""
    rows = list(rows)
    return linalg.matvec(g.field, coding.information_set_inverse(g, rows), y[rows])


def test_square_mds_is_bijective():
    f8 = standard_field(8)
    g = coding.make_mds(3, 3, f8)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(50):
        x = f8.random_symbols(rng, 3)
        y = encode(g, x)
        assert np.array_equal(decode(g, range(3), y), x)
        seen.add(bytes(y))
    assert len(seen) > 1


def test_13_7_all_submatrices_invertible():
    f8 = standard_field(8)
    g = coding.make_mds(13, 7, f8)
    for rows in combinations(range(13), 7):
        assert linalg.rank(f8, g.entries[list(rows), :]) == 7


def test_5_2_minors_exhaustive():
    f4 = standard_field(4)
    g = coding.make_mds(5, 2, f4)
    count = 0
    for r1, r2 in combinations(range(5), 2):
        a, b = g.entries[r1], g.entries[r2]
        det = f4.mul(int(a[0]), int(b[1])) ^ f4.mul(int(a[1]), int(b[0]))
        assert det != 0
        count += 1
    assert count == 10


@pytest.mark.parametrize("e,f,w", [(6, 3, 4), (8, 5, 4), (10, 4, 8), (9, 9, 8)])
def test_mds_property_exhaustive_small(e, f, w):
    fld = standard_field(w)
    g = coding.make_mds(e, f, fld)
    for rows in combinations(range(e), f):
        assert linalg.rank(fld, g.entries[list(rows), :]) == f


def test_systematic_structure():
    f8 = standard_field(8)
    g = coding.make_systematic_mds(13, 7, f8)
    assert np.array_equal(g.entries[6:, :], np.eye(7, dtype=f8.dtype))
    g2 = coding.make_systematic_mds(28, 19, f8)
    # parity rows come first; the identity occupies the last 19 rows
    assert np.array_equal(g2.entries[9:, :], np.eye(19, dtype=f8.dtype))
    assert not np.array_equal(g2.entries[:9, :9], np.eye(9, dtype=f8.dtype))
    ident = coding.make_systematic_mds(5, 5, standard_field(4))
    assert np.array_equal(ident.entries, np.eye(5, dtype=np.uint8))


def test_systematic_encode_embeds_input():
    f8 = standard_field(8)
    g = coding.make_systematic_mds(13, 7, f8)
    rng = np.random.default_rng(1)
    x = f8.random_symbols(rng, 7)
    y = encode(g, x)
    assert np.array_equal(y[6:], x)
    assert np.array_equal(encode(g, np.zeros(7, dtype=f8.dtype)),
                          np.zeros(13, dtype=f8.dtype))


def test_encode_matches_dot_product_oracle():
    f4 = standard_field(4)
    g = coding.make_mds(5, 2, f4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = f4.random_symbols(rng, 2)
        y = encode(g, x)
        for i in range(5):
            expect = f4.mul(int(g.entries[i, 0]), int(x[0])) ^ \
                f4.mul(int(g.entries[i, 1]), int(x[1]))
            assert int(y[i]) == expect


def test_erasure_decode_full_and_partial():
    f8 = standard_field(8)
    g = coding.make_mds(13, 7, f8)
    rng = np.random.default_rng(3)
    x = f8.random_symbols(rng, 7)
    y = encode(g, x)
    assert np.array_equal(decode(g, range(7), y), x)
    assert np.array_equal(encode(g, decode(g, range(7), y)), y)  # all 13 rows
    for _ in range(40):
        rows = sorted(rng.choice(13, size=7, replace=False).tolist())
        assert np.array_equal(decode(g, rows, y), x)


def test_erasure_decode_against_naive_oracle_bulk():
    """>= 1e4 random instances against the from-scratch solver."""
    rng = np.random.default_rng(4)
    cases = 0
    while cases < 10_000:
        w = int(rng.choice([4, 8]))
        fld = standard_field(w)
        e = int(rng.integers(2, 11))
        f = int(rng.integers(1, e + 1))
        g = coding.make_mds(e, f, fld)
        x = fld.random_symbols(rng, f)
        y = encode(g, x)
        take = int(rng.integers(f, e + 1))
        rows = sorted(rng.choice(e, size=take, replace=False).tolist())
        got = decode(g, rows[:f], y)
        ref = naive_solve(fld, g.entries[rows[:f], :], [int(y[r]) for r in rows[:f]])
        assert np.array_equal(got, ref)
        assert np.array_equal(got, x)
        cases += 1


def test_erasure_decode_nine_six_drop_three():
    f8 = standard_field(8)
    g = coding.make_mds(9, 6, f8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = f8.random_symbols(rng, 6)
        y = encode(g, x)
        drop = set(rng.choice(9, size=3, replace=False).tolist())
        rows = [r for r in range(9) if r not in drop]
        got = decode(g, rows, y)
        ref = naive_solve(f8, g.entries[rows, :], [int(y[r]) for r in rows])
        assert np.array_equal(got, ref) and np.array_equal(got, x)


def test_round_trip_random_subsets_bulk():
    rng = np.random.default_rng(7)
    f4 = standard_field(4)
    for _ in range(200):
        e = int(rng.integers(2, 12))
        f = int(rng.integers(1, e + 1))
        g = coding.make_mds(e, f, f4)
        x = f4.random_symbols(rng, f)
        y = encode(g, x)
        rows = sorted(rng.choice(e, size=f, replace=False).tolist())
        assert np.array_equal(decode(g, rows, y), x)


def test_field_too_small():
    f4 = standard_field(4)
    with pytest.raises(FieldTooSmallError) as err:
        coding.make_mds(17, 3, f4)
    assert err.value.min_width == 8


def test_make_mds_deterministic_across_processes():
    f8 = standard_field(8)
    local = coding.make_mds(13, 7, f8).entries.tobytes().hex()
    script = (
        "from sidepir.coding import make_mds\n"
        "from sidepir.field import standard_field\n"
        "print(make_mds(13, 7, standard_field(8)).entries.tobytes().hex())"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == local


class CountingRng:
    """Counts candidate draws so rejection acceptance can be observed."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_full_rank_sampler_basics():
    f4 = standard_field(4)
    rng = np.random.default_rng(8)
    for n in (1, 2, 5):
        m = coding.sample_full_rank_factored(n, f4, [rng])[0][0]
        assert linalg.rank(f4, m) == n


def test_full_rank_1x1_uniform_over_nonzero():
    f4 = standard_field(4)
    rng = np.random.default_rng(9)
    counts = np.zeros(16, dtype=int)
    for _ in range(30_000):
        counts[int(coding.sample_full_rank_factored(1, f4, [rng])[0][0, 0, 0])] += 1
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 0.001


def test_binary_2x2_acceptance_oracle():
    """GF(2) harness: 6 of the 16 binary 2x2 matrices are invertible, so the
    rejection sampler must accept at rate 6/16."""
    f2 = GF(1, poly=0b11)
    mats = np.array([[[b >> 3 & 1, b >> 2 & 1], [b >> 1 & 1, b & 1]]
                     for b in range(16)], dtype=np.uint8)
    ranks = linalg.rank_batched(f2, mats)
    assert int((ranks == 2).sum()) == 6
    counter = CountingRng(np.random.default_rng(10))
    accepted = 0
    while accepted < 2000:
        coding.sample_full_rank_factored(2, f2, [counter])
        accepted += 1
    rate = accepted / counter.calls
    assert abs(rate - 6 / 16) < 0.02


def test_first_row_marginal_uniformity():
    """Uniformity of the sampled matrices: the first row of an invertible
    2x2 over GF(16) is uniform over the 255 nonzero patterns."""
    f4 = standard_field(4)
    rng = np.random.default_rng(11)
    need = 100_000
    counts = np.zeros(256, dtype=np.int64)
    got = 0
    while got < need:
        take = need - got
        cand = f4.random_symbols(rng, (int(take * 1.15) + 8, 2, 2))
        ok = linalg.rank_batched(f4, cand) == 2
        sel = cand[ok][:take]
        idx = sel[:, 0, 0].astype(np.int64) * 16 + sel[:, 0, 1].astype(np.int64)
        counts += np.bincount(idx, minlength=256)
        got += len(sel)
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 0.001


def test_batched_sampler_matches_sequential():
    """Batching must not change what any individual source draws."""
    f8 = standard_field(8)
    seeds = [(21, i) for i in range(16)]
    batch = coding.sample_full_rank_factored(
        6, f8, [np.random.default_rng(s) for s in seeds])[0]
    for i, seed in enumerate(seeds):
        single = coding.sample_full_rank_factored(6, f8, [np.random.default_rng(seed)])[0]
        assert np.array_equal(batch[i], single[0])


def test_batched_sampler_is_stream_ordered_for_a_shared_source():
    """One source filling K slots yields its first K full-rank candidates in
    draw order: over GF(2^4) about 7% of 3x3 candidates are singular, so
    rejections land mid-batch in many of these seeds."""
    f4 = standard_field(4)
    n, k = 3, 5
    for seed in range(200):
        shared = np.random.default_rng(seed)
        batch = coding.sample_full_rank_factored(n, f4, [shared] * k)[0]
        solo = np.random.default_rng(seed)
        sequential = [coding.sample_full_rank_factored(n, f4, [solo])[0][0]
                      for _ in range(k)]
        assert np.array_equal(batch, np.stack(sequential))
        # the source ends in the same state, so later draws agree too
        assert shared.integers(1 << 30) == solo.integers(1 << 30)


def test_information_set_inverse_matches_direct_solve():
    rng = np.random.default_rng(31)
    f8 = standard_field(8)
    coding._information_set_inverse.cache_clear()
    for systematic in (False, True):
        make = coding.make_systematic_mds if systematic else coding.make_mds
        for _ in range(40):
            e = int(rng.integers(2, 14))
            f = int(rng.integers(1, e + 1))
            g = make(e, f, f8)
            rows = sorted(rng.choice(e, size=f, replace=False).tolist())
            values = f8.random_symbols(rng, f)
            want = linalg.solve(f8, g.entries[rows, :], values)
            inv = coding.information_set_inverse(g, rows)
            assert np.array_equal(linalg.matvec(f8, inv, values), want)
            assert not inv.flags.writeable
            with pytest.raises(ValueError):
                inv[0, 0] ^= 1
    assert coding._information_set_inverse.cache_info().currsize > 0
    coding._information_set_inverse.cache_clear()
    assert coding._information_set_inverse.cache_info().currsize == 0

