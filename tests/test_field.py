"""Field arithmetic: worked values, axioms, inverses, packing."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sidepir.errors import ParameterError
from sidepir.field import (
    DEFAULT_POLYNOMIALS,
    GF,
    _slow_mul,
    is_irreducible,
    standard_field,
)

WIDTHS = (4, 8, 16)


def test_known_values_mul():
    f8 = standard_field(8)
    # x * x^7 = x^8 = x^4 + x^3 + x + 1 under the default degree-8 polynomial
    assert f8.mul(0x02, 0x80) == 0x1B
    for f in map(standard_field, WIDTHS):
        for a in (0, 1, 2, f.q - 1):
            assert f.mul(a, 0x01) == a
            assert f.mul(a, 0x00) == 0


@pytest.mark.parametrize("w", WIDTHS)
def test_mul_scalars_zeros_and_arrays(w):
    """Array products equal the table-building shift-and-reduce product,
    zeros included; scalars give an int; a symbol outside the field raises
    IndexError."""
    f = standard_field(w)
    rng = np.random.default_rng(w)
    a = f.random_symbols(rng, (192, 64))
    a[0] = 0
    for b in (0, 1, 3, f.q - 1):
        expect = _slow_mul(a.astype(np.int64), b, f.poly, w)
        got = f.mul(a, b)
        assert got.dtype == f.dtype and np.array_equal(got, expect)
        assert np.array_equal(f.mul(b, a), expect)
    pairs = f.random_symbols(rng, (2, 300))
    pairs[:, :5] = 0
    got = f.mul(pairs[0], pairs[1])
    assert got.shape == (300,)
    assert got.tolist() == [_slow_mul(int(x), int(y), f.poly, w) for x, y in pairs.T]
    for x, y in ((0, 0), (0, 5), (f.q - 1, 1), (np.uint16(2), 3)):
        out = f.mul(x, y)
        assert type(out) is int and out == _slow_mul(int(x), int(y), f.poly, w)
    with pytest.raises(IndexError):
        f.mul(f.q, 1)
    with pytest.raises(IndexError):
        f.mul(a, np.full(a.shape, f.q))


def test_inverse_examples():
    f4 = standard_field(4)
    assert f4.inv(0x1) == 0x1
    # independent oracle: exhaustive search over the 15 nonzero elements
    found = [b for b in range(1, 16) if f4.mul(0x2, b) == 1]
    assert found == [0x9]
    assert f4.inv(0x2) == 0x9
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


@pytest.mark.parametrize("w", WIDTHS)
def test_inverse_property(w):
    f = standard_field(w)
    if w <= 8:
        elems = np.arange(1, f.q, dtype=f.dtype)
    else:
        elems = np.unique(f.random_symbols(np.random.default_rng(0), 5000))
        elems = elems[elems != 0]
    assert np.all(f.mul(elems, f.inv(elems)) == 1)


@pytest.mark.parametrize("w", WIDTHS)
def test_field_axioms_bulk(w):
    """Associativity, commutativity, distributivity over 1e5 random triples."""
    f = standard_field(w)
    rng = np.random.default_rng(w)
    a, b, c = (f.random_symbols(rng, 100_000) for _ in range(3))
    assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))
    assert np.array_equal(f.mul(a, b), f.mul(b, a))
    assert np.array_equal(a ^ b, b ^ a)
    assert np.array_equal(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c))
    # adding b twice is the identity
    assert np.array_equal((a ^ b) ^ b, a)


@pytest.mark.parametrize("w", (4, 8))
def test_axioms_exhaustive_small(w):
    f = standard_field(w)
    grid = np.arange(f.q, dtype=f.dtype)
    a = np.repeat(grid, f.q)
    b = np.tile(grid, f.q)
    assert np.array_equal(f.mul(a, b), f.mul(b, a))
    nz = a != 0
    assert np.all(f.mul(a[nz], f.inv(a[nz])) == 1)


def test_pow_matches_repeated_mul():
    f = standard_field(4)
    for a in range(16):
        acc = 1
        for e in range(8):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_irreducibility_check():
    assert is_irreducible(0x13, 4)
    assert not is_irreducible(0x18, 4)      # x^4 + x^3 = x^3 (x + 1)
    assert is_irreducible(0x11B, 8)
    assert not is_irreducible(0x11A, 8)     # even constant term: divisible by x
    with pytest.raises(ParameterError):
        GF(4, poly=0x18)


def reference_tables(w, poly):
    """The generator and antilog table by the scalar loop: try candidates
    2, 3, ... in order and keep the first whose powers run through every
    nonzero element before returning to 1."""
    def mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> w:
                a ^= poly
        return out

    order = (1 << w) - 1
    if order == 1:
        return 1, [1]
    for g in range(2, 1 << w):
        x, powers = 1, []
        for _ in range(order):
            powers.append(x)
            x = mul(x, g)
            if x == 1:
                break
        if len(powers) == order:
            return g, powers
    raise AssertionError("no generator")


def first_irreducible(w):
    return next(p for p in range(1 << w, 1 << (w + 1)) if is_irreducible(p, w))


@pytest.mark.parametrize("w,poly", [
    *[(w, DEFAULT_POLYNOMIALS.get(w) or first_irreducible(w)) for w in range(1, 17)],
    (1, 0b11), (4, 0x19), (4, 0x1F), (8, 0x11D), (8, 0x1F5), (16, 0x1002B),
])
def test_tables_match_scalar_reference(w, poly):
    """The vectorised table build gives the scalar loop's generator and
    tables bit for bit, including polynomials whose root is not primitive
    (0x1F, 0x11B), where early candidates are skipped."""
    assert is_irreducible(poly, w)
    f = GF(w, poly)
    generator, alog = reference_tables(w, poly)
    order = len(alog)
    assert f.generator == generator
    assert f._alog[:order].tolist() == alog
    assert f._alog[order:2 * order].tolist() == alog
    assert f._log[alog].tolist() == list(range(order))


def test_default_polynomials_build():
    for w in WIDTHS:
        f = standard_field(w)
        assert f.q == 1 << w
        assert f.mul(f.inv(3), 3) == 1


def test_standard_field_rejects_odd_widths():
    with pytest.raises(ParameterError):
        standard_field(5)


def test_binary_test_harness_field():
    """GF(2) can be constructed explicitly for analysis harnesses."""
    f2 = GF(1, poly=0b11)
    assert f2.mul(1, 1) == 1
    assert f2.mul(1, 1 ^ 1) == f2.mul(1, 1) ^ f2.mul(1, 1) == 0


@pytest.mark.parametrize("w", WIDTHS)
def test_packing_round_trip(w):
    f = standard_field(w)
    rng = np.random.default_rng(2 * w)
    for count in (0, 1, 2, 7, 8, 64, 129):
        symbols = f.random_symbols(rng, count)
        data = f.pack(symbols)
        assert len(data) == f.packed_size(count)
        assert np.array_equal(f.unpack(data, count), symbols)


def test_nibble_packing_layout():
    f4 = standard_field(4)
    data = f4.pack(np.array([0x3, 0xA, 0xF], dtype=np.uint8))
    # low nibble first, odd tail padded with zero
    assert data == bytes([0xA3, 0x0F])


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_mul_agrees_with_shift_reduce(a, b):
    """Table multiplication matches an independent shift-and-reduce product."""
    f8 = standard_field(8)

    def slow(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= 0x11B
        return out

    assert f8.mul(a, b) == slow(a, b)
