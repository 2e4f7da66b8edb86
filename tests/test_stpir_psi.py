"""Symmetric scheme: round trips, polynomial oracle, exact privacy
enumeration at desk scale, randomness accounting, the sum shortcut."""

import inspect
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sidepir import stpir_psi
from sidepir.capacity import SchemeParams, capacity_stpir_psi
from sidepir.errors import (
    InvalidSideInformationError,
    ParameterError,
    ZeroCapacityError,
)
from sidepir.store import MessageStore, random_store
from sidepir.stpir_psi import (
    derive_common_randomness,
    make_sym_params,
    point_powers,
    queries_from_masks,
    sym_answer,
    sym_decode,
    sym_answers,
    sym_masks,
    session_protocol,
)

SECRET = bytes(range(32))


def sym_query(sp, theta, rng):
    """One session's N queries, shaped (N, K, N - T), from fresh masks."""
    return queries_from_masks(sp, theta, sym_masks(sp, rng))


def zero_sigma(t, field):
    return np.zeros(t, dtype=field.dtype)


def run_masked_session(sp, theta, store, rng):
    queries = sym_query(sp, theta, rng)
    sigma = derive_common_randomness(SECRET, rng.bytes(16), sp.params.T, sp.field)
    answers = sym_answers(sp, queries, store.messages, sigma)
    return sym_decode(answers, sp), answers


@pytest.mark.parametrize("k,n,t", [(2, 2, 1), (3, 3, 1), (3, 3, 2), (2, 4, 2),
                                   (3, 4, 2), (4, 5, 3)])
def test_round_trips(k, n, t):
    sp = make_sym_params(SchemeParams(k, 0, n, t))
    rng = np.random.default_rng((k, n, t))
    for _ in range(12):
        store = random_store(sp.field, k, sp.message_length, rng)
        theta = int(rng.integers(1, k + 1))
        got, answers = run_masked_session(sp, theta, store, rng)
        assert np.array_equal(got, store.message(theta))
        assert len(answers) == n
    assert Fraction(sp.message_length, n) == 1 - Fraction(t, n)


def test_rate_matches_capacity_with_threshold_randomness():
    for n, t in ((2, 1), (3, 1), (3, 2), (4, 2)):
        p = SchemeParams(3, 0, n, t)
        rho = Fraction(t, n - t)
        assert Fraction(n - t, n) == capacity_stpir_psi(p, rho)


def test_zero_store_zero_sigma_gives_zero():
    sp = make_sym_params(SchemeParams(2, 0, 3, 1))
    store = MessageStore(field=sp.field,
                         messages=np.zeros((2, 2), dtype=sp.field.dtype))
    rng = np.random.default_rng(0)
    queries = sym_query(sp, 1, rng)
    sigma = zero_sigma(1, sp.field)
    for n in range(3):
        powers = point_powers(sp.field, int(sp.lambdas[n]), 1)
        assert sym_answer(sp.field, queries[n], store.messages, sigma, powers) == 0


def test_unmasked_queries_still_decode():
    """All-zero masking polynomials: hiding is gone, correctness is not."""
    sp = make_sym_params(SchemeParams(3, 0, 4, 2))
    masks = np.zeros((3, 2, 2), dtype=sp.field.dtype)
    queries = queries_from_masks(sp, 2, masks)
    store = random_store(sp.field, 3, 2, np.random.default_rng(1))
    answers = sym_answers(sp, queries, store.messages, zero_sigma(2, sp.field))
    assert np.array_equal(sym_decode(answers, sp), store.message(2))


@pytest.mark.parametrize("params", [SchemeParams(3, 0, 3, 1), SchemeParams(4, 1, 4, 2, w=8),
                                    SchemeParams(3, 0, 5, 3, w=16)], ids=["T=1", "T=2", "T=3"])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["single", "batch", "two-axes"])
def test_queries_from_masks_equals_the_vandermonde_product(params, lead):
    """Query assembly is the product of the T mask columns of the Vandermonde
    matrix with each coordinate's mask, plus the indicator columns on the
    desired message: the same symbols as that product through
    ``linalg.matmul``, for one session or any leading session axes."""
    from sidepir import linalg

    sp = make_sym_params(params)
    k, n, t, ell = params.K, params.N, params.T, sp.message_length
    masks = sp.field.random_symbols(np.random.default_rng(7), lead + (k, ell, t))
    want = linalg.matmul(sp.field, sp.vander[:, :t],
                         np.swapaxes(masks.reshape(lead + (k * ell, t)), -1, -2))
    want = want.reshape(lead + (n, k, ell))
    want[..., 2, :] ^= sp.vander[:, t:]
    got = queries_from_masks(sp, 3, masks)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for i in np.ndindex(*lead):
        assert np.array_equal(queries_from_masks(sp, 3, masks[i]), want[i])


def test_answers_interpolate_known_polynomial_when_unmasked():
    """With masks and sigma pinned to zero the answer polynomial is exactly
    (0,...,0, W_theta): its low coefficients vanish."""
    sp = make_sym_params(SchemeParams(2, 0, 4, 1))
    masks = np.zeros((2, 3, 1), dtype=sp.field.dtype)
    store = random_store(sp.field, 2, 3, np.random.default_rng(2))
    queries = queries_from_masks(sp, 1, masks)
    answers = sym_answers(sp, queries, store.messages, zero_sigma(1, sp.field))
    from sidepir import linalg
    vander = np.stack([sp.field.pow(sp.lambdas, j) for j in range(4)], axis=1)
    coeffs = linalg.solve(sp.field, vander, answers)
    assert coeffs[0] == 0
    assert np.array_equal(coeffs[1:], store.message(1))


def test_answer_matches_symbolic_polynomial_oracle():
    """Build A(x)'s coefficients symbolically with scalar ops and evaluate by
    Horner; the databases' inner products must agree everywhere, one
    database at a time and in one batched call over all sessions."""
    sp = make_sym_params(SchemeParams(2, 0, 3, 1))
    f = sp.field
    rng = np.random.default_rng(3)
    batch = {"queries": [], "stores": [], "sigma": [], "horner": []}
    for _ in range(30):
        store = random_store(f, 2, 2, rng)
        theta = int(rng.integers(1, 3))
        masks = f.random_symbols(rng, (2, 2, 1))
        sigma = f.random_symbols(rng, (1,))
        queries = queries_from_masks(sp, theta, masks)
        # coefficients: degree 0 from masks+sigma, degrees T..N-1 the message
        coeffs = [int(sigma[0]), 0, 0]
        for k in range(2):
            for i in range(2):
                coeffs[0] ^= f.mul(int(store.messages[k, i]), int(masks[k, i, 0]))
        for i in range(2):
            coeffs[1 + i] ^= int(store.messages[theta - 1, i])
        for n in range(3):
            lam = int(sp.lambdas[n])
            horner = 0
            for c in reversed(coeffs):
                horner = f.mul(horner, lam) ^ c
            powers = point_powers(f, lam, 1)
            assert horner == sym_answer(f, queries[n], store.messages, sigma, powers)
            batch["horner"].append(horner)
        batch["queries"].append(queries)
        batch["stores"].append(store.messages)
        batch["sigma"].append(sigma)
    answers = sym_answers(sp, *(np.stack(batch[key])
                                for key in ("queries", "stores", "sigma")))
    assert answers.shape == (30, 3)
    assert answers.ravel().tolist() == batch["horner"]


def test_single_server_view_uniform_by_enumeration():
    """K=2, N=2, T=1 at width 4: enumerating the whole mask space shows each
    database's query pair is exactly uniform, identically for both desired
    indices (and a fortiori independent of the cache, which never enters)."""
    sp = make_sym_params(SchemeParams(2, 0, 2, 1))
    f = sp.field
    dists = {}
    for theta in (1, 2):
        for server in (0, 1):
            counter = Counter()
            for m1 in range(16):
                for m2 in range(16):
                    masks = np.array([[[m1]], [[m2]]], dtype=f.dtype)
                    q = queries_from_masks(sp, theta, masks)
                    counter[(int(q[server, 0, 0]), int(q[server, 1, 0]))] += 1
            dists[(theta, server)] = counter
    for server in (0, 1):
        assert dists[(1, server)] == dists[(2, server)]
        assert set(dists[(1, server)].values()) == {1}
        assert len(dists[(1, server)]) == 256


def test_query_distribution_identical_across_theta_chi_square():
    """Monte-Carlo at 1e5 sessions: per-coordinate histograms of a fixed
    database's query agree across desired indices (two-sample chi-square)."""
    from scipy import stats
    sp = make_sym_params(SchemeParams(3, 0, 3, 2))
    f = sp.field
    k, ell, t = 3, sp.message_length, 2
    sessions = 100_000
    hists = {}
    for theta in (1, 2, 3):
        rng = np.random.default_rng((50, theta))
        masks = f.random_symbols(rng, (sessions, k, ell, t))
        low = np.stack([f.pow(sp.lambdas, j) for j in range(t)], axis=1)
        from sidepir import linalg
        evaluated = linalg.matmul(f, masks.reshape(-1, t), low.T)
        queries = np.moveaxis(evaluated.reshape(sessions, k, ell, 3), 3, 1)
        indicator = np.stack([f.pow(sp.lambdas, t + i) for i in range(ell)], axis=1)
        queries[:, :, theta - 1, :] ^= indicator[None, :, :]
        server0 = queries[:, 0, :, :].reshape(sessions, k * ell)
        hists[theta] = [np.bincount(server0[:, c], minlength=16)
                        for c in range(k * ell)]
    for ta, tb in ((1, 2), (1, 3), (2, 3)):
        for c in range(k * ell):
            table = np.stack([hists[ta][c], hists[tb][c]])
            p = stats.chi2_contingency(table).pvalue
            assert p > 0.001, (ta, tb, c, p)


def test_query_deterministic_and_cache_free():
    sp = make_sym_params(SchemeParams(3, 0, 3, 1))
    q1 = sym_query(sp, 2, np.random.default_rng(42))
    q2 = sym_query(sp, 2, np.random.default_rng(42))
    assert np.array_equal(q1, q2)
    for fn in (stpir_psi.SymmetricProtocol.draw, stpir_psi.sym_answer,
               stpir_psi.queries_from_masks):
        names = set(inspect.signature(fn).parameters)
        assert not names & {"side", "S", "cached"}, fn


def test_randomness_accounting():
    """Exactly T shared symbols per session; the threshold ratio is met with
    equality."""
    for n, t in ((2, 1), (3, 1), (3, 2), (4, 2)):
        p = SchemeParams(2, 0, n, t)
        sp = make_sym_params(p)
        sigma = derive_common_randomness(SECRET, bytes(16), t, sp.field)
        assert sigma.shape == (t,)
        assert Fraction(t, sp.message_length) == Fraction(t, n - t)


def test_common_randomness_is_keyed_and_replicable():
    f = make_sym_params(SchemeParams(2, 0, 3, 1)).field
    a = derive_common_randomness(SECRET, bytes(16), 2, f)
    b = derive_common_randomness(SECRET, bytes(16), 2, f)
    c = derive_common_randomness(SECRET, b"\x01" + bytes(15), 2, f)
    d = derive_common_randomness(b"other-secret-32-bytes-padding!!!", bytes(16), 2, f)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)
    with pytest.raises(Exception):
        derive_common_randomness(SECRET, bytes(3), 2, f)


def test_derived_sigma_uniformity():
    from scipy import stats
    f = make_sym_params(SchemeParams(2, 0, 3, 1)).field
    rng = np.random.default_rng(4)
    values = []
    for _ in range(20_000):
        sigma = derive_common_randomness(SECRET, rng.bytes(16), 1, f)
        values.append(int(sigma[0]))
    counts = np.bincount(np.array(values), minlength=16)
    assert stats.chisquare(counts).pvalue > 0.001


def test_zero_capacity_when_all_collude():
    sp = make_sym_params(SchemeParams(3, 0, 3, 3))
    with pytest.raises(ZeroCapacityError):
        sym_query(sp, 1, np.random.default_rng(5))


def test_single_message_rejected():
    with pytest.raises(ParameterError):
        make_sym_params(SchemeParams(1, 0, 3, 1))


def test_full_session_helper():
    sp = make_sym_params(SchemeParams(3, 0, 4, 2))
    rng = np.random.default_rng(6)
    store = random_store(sp.field, 3, 2, rng)
    sigma = derive_common_randomness(SECRET, bytes(16), sp.params.T, sp.field)
    got = sym_decode(sym_answers(sp, sym_query(sp, 3, rng), store.messages, sigma), sp)
    assert np.array_equal(got, store.message(3))


def test_pinned_wide_field_session():
    sp = make_sym_params(SchemeParams(3, 0, 3, 1, w=16))
    assert sp.field.w == 16
    rng = np.random.default_rng(60)
    store = random_store(sp.field, 3, 2, rng)
    sigma = derive_common_randomness(SECRET, bytes(16), sp.params.T, sp.field)
    got = sym_decode(sym_answers(sp, sym_query(sp, 2, rng), store.messages, sigma), sp)
    assert np.array_equal(got, store.message(2))


# ---------------------------------------------------------------------------
# the all-but-one-cached shortcut


def sum_download(params, store, cached, theta):
    """One round trip of the sum protocol in process: its cache check, its
    one database's answer and the cache stripped off."""
    protocol, side = session_protocol("stpir", params).prepare(
        theta, store.side_information(cached))
    state = protocol.draw(theta, [np.random.default_rng(0)])
    answers = protocol.answer(state, store)
    assert answers.shape == (1, 1, store.message_length)
    return protocol.finish(state, answers, {i: v[None] for i, v in side.items()})[0]


def test_sum_shortcut_two_messages():
    params = SchemeParams(2, 1, 2, 1)
    f = make_sym_params(params).field
    store = random_store(f, 2, 2, np.random.default_rng(7))
    got = sum_download(params, store, {2}, 1)
    assert np.array_equal(got, store.message(1))


def test_sum_shortcut_zero_store():
    params = SchemeParams(2, 1, 2, 1)
    f = make_sym_params(params).field
    store = MessageStore(field=f, messages=np.zeros((2, 2), dtype=f.dtype))
    got = sum_download(params, store, {2}, 1)
    assert not got.any()


def test_sum_shortcut_three_messages():
    params = SchemeParams(3, 2, 2, 1)
    f = make_sym_params(params).field
    store = random_store(f, 3, 5, np.random.default_rng(8))
    got = sum_download(params, store, {1, 3}, 2)
    assert np.array_equal(got, store.message(2))


def test_sum_shortcut_validation():
    params = SchemeParams(3, 2, 2, 1)
    f = make_sym_params(params).field
    store = random_store(f, 3, 5, np.random.default_rng(9))
    with pytest.raises(InvalidSideInformationError):
        sum_download(params, store, {1}, 2)
    with pytest.raises(InvalidSideInformationError):
        sum_download(params, store, {1, 2}, 2)
