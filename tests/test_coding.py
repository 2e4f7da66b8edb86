"""MDS generators, erasure decoding, full-rank sampling.

Erasure decoding is tested on the path the layered decoder runs: the cached
information-set inverse applied with one ``linalg.matvec``. It is
cross-checked against a row-reduction solver written here from scratch on
scalar field ops, so the two routes share no code.
"""

import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from sidepir import coding, linalg
from sidepir.errors import FieldTooSmallError, ParameterError
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
    subsets = np.array(list(combinations(range(13), 7)))
    assert (linalg.rank_batched(f8, g.entries[subsets]) == 7).all()


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
    subsets = np.array(list(combinations(range(e), f)))
    assert (linalg.rank_batched(fld, g.entries[subsets]) == f).all()


def first_singular_subset(field, entries, subsets):
    """Reference for the self-check: one rank per subset, in order."""
    return next((rows for rows in subsets
                 if linalg.rank_batched(field, entries[None, list(rows), :])[0]
                 != entries.shape[1]), None)


def spot_check_subsets(e, f):
    rng = np.random.default_rng(0)
    return [tuple(rng.choice(e, size=f, replace=False)) for _ in range(24)]


@pytest.mark.parametrize("e,f,w,dup", [(10, 4, 8, (7, 3)), (123, 63, 16, (40, 90))],
                         ids=["exhaustive", "spot-check"])
def test_self_check_refuses_a_duplicated_row(e, f, w, dup):
    """Negative control: a generator with one row copied onto another is
    refused, naming the first singular subset in the order the check takes
    them (every subset, or the 24 drawn from ``default_rng(0)``)."""
    field = GF(w)
    entries = coding._vandermonde(e, f, field)
    entries[dup[1]] = entries[dup[0]]
    subsets = (list(combinations(range(e), f)) if e <= 12 else spot_check_subsets(e, f))
    first = first_singular_subset(field, entries, subsets)
    assert first is not None and first != subsets[0]
    with pytest.raises(ParameterError) as err:
        coding._verify_mds(field, entries)
    assert str(err.value) == f"({e},{f}) generator lost the MDS property on rows {first}"
    if e <= 12:
        assert first == (0, 1, 3, 7)


def test_self_check_is_one_batched_elimination(monkeypatch):
    """The spot check of the (123, 63) code at w = 16 stacks its 24 subsets
    into one elimination; the only other one inverts the systematic tail."""
    calls = []
    original = linalg.lu_batched

    def counting(field, mats):
        calls.append(np.shape(mats))
        return original(field, mats)

    monkeypatch.setattr(linalg, "lu_batched", counting)
    coding.make_systematic_mds.__wrapped__(123, 63, GF(16))
    assert calls == [(1, 63, 63), (24, 63, 63)]


def test_self_check_stacks_split_at_the_chunk_bound(monkeypatch):
    """With room for five subsets per call the same 24 subsets are checked
    in five calls, and a singular subset past the first call is still the
    one named."""
    field = GF(16)
    entries = coding._vandermonde(123, 63, field)
    entries[90] = entries[40]
    monkeypatch.setattr(linalg, "MATMUL_CHUNK", 5 * entries[:63].nbytes)
    subsets = spot_check_subsets(123, 63)
    first = first_singular_subset(field, entries, subsets)
    assert subsets.index(first) >= 5
    calls = []
    original = linalg.rank_batched
    monkeypatch.setattr(linalg, "rank_batched",
                        lambda fld, mats: calls.append(len(mats)) or original(fld, mats))
    with pytest.raises(ParameterError) as err:
        coding._verify_mds(field, entries)
    assert str(err.value).endswith(f"rows {first}")
    assert calls == [5] * (subsets.index(first) // 5 + 1)
    calls.clear()
    coding._verify_mds(field, coding._vandermonde(123, 63, field))
    assert calls == [5, 5, 5, 5, 4]


def test_self_check_memory_is_bounded():
    """Each call stacks at most ``MATMUL_CHUNK`` bytes of subsets (11 of the
    24 at (382, 211), w = 16, whose whole stack is 2.1 MB), so the peak is
    that stack, its elimination copy and the elimination's scratch of one
    chunk of indices and a quarter chunk of gathered symbols."""
    field = GF(16)
    entries = coding._vandermonde(382, 211, field)
    tracemalloc.start()
    try:
        coding._verify_mds(field, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * linalg.MATMUL_CHUNK, peak


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
        assert linalg.rank_batched(f4, m[None])[0] == n


def test_full_rank_1x1_uniform_over_nonzero():
    f4 = standard_field(4)
    rng = np.random.default_rng(9)
    counts = np.zeros(16, dtype=int)
    for _ in range(30_000):
        counts[int(coding.sample_full_rank_factored(1, f4, [rng])[0][0, 0, 0])] += 1
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 0.001


def test_full_rank_block_uniform_over_binary_2x4():
    """A block is uniform over the full-rank blocks: over GF(2) each of the
    210 full-rank 2 x 4 matrices comes out about equally often, and no
    other one does. The blocks follow a 4 x 4 mixer from the same source,
    as in a session's draw."""
    f2 = GF(1, poly=0b11)
    bits = 1 << np.arange(8)
    every = ((np.arange(256)[:, None] & bits) > 0).astype(np.uint8).reshape(256, 2, 4)
    full = linalg.rank_batched(f2, every) == 2
    assert int(full.sum()) == 15 * 14
    draws = 21_000
    rng = np.random.default_rng(12)
    blocks = coding.sample_full_rank_factored(4, f2, [rng], [rng] * draws, 2)[3]
    counts = np.bincount(blocks.reshape(draws, 8) @ bits, minlength=256)
    assert counts[~full].sum() == 0
    assert stats.chisquare(counts[full]).pvalue > 0.001


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


def test_batched_sampler_matches_single_sources_with_blocks():
    """A source that draws one 3 x 3 matrix and four 2 x 3 blocks gets the
    same matrix, factors and blocks, and ends in the same state, whatever
    other sources share its batch. Over GF(2^4) rejections of both kinds
    land mid-batch."""
    f4 = standard_field(4)
    seeds = [(22, i) for i in range(40)]
    rngs = [np.random.default_rng(s) for s in seeds]
    batch = coding.sample_full_rank_factored(3, f4, rngs, [r for r in rngs for _ in range(4)], 2)
    assert [a.shape for a in batch] == [(40, 3, 3), (40, 3, 3), (40, 3), (160, 2, 3)]
    for i, seed in enumerate(seeds):
        solo = np.random.default_rng(seed)
        single = coding.sample_full_rank_factored(3, f4, [solo], [solo] * 4, 2)
        for got, want in zip(batch[:3], single[:3]):
            assert np.array_equal(got[i], want[0])
        assert np.array_equal(batch[3][4 * i:4 * i + 4], single[3])
        assert rngs[i].integers(1 << 30) == solo.integers(1 << 30)
    assert (linalg.rank_batched(f4, batch[3]) == 2).all()


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

