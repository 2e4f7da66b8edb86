"""GF(2^w) arithmetic for protocol symbols.

Elements are plain integers in [0, 2^w); addition and subtraction are their
bitwise XOR, ``a ^ b``. A :class:`GF` instance carries the
log/antilog tables and the other operations; each accepts either scalars
or numpy arrays, and the array forms are the hot path for the rest of the
package. Protocol fields are the binary extension fields with w in
{4, 8, 16}; other widths can be constructed explicitly for test harnesses.

Wire packing: symbols serialize little-endian in ceil(w/8) bytes, except
w = 4 which packs two symbols per byte, low nibble first.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .errors import ParameterError

# Standard reduction polynomials (bit i = coefficient of x^i, bit w set).
DEFAULT_POLYNOMIALS = {
    4: 0x13,       # x^4 + x + 1
    8: 0x11B,      # x^8 + x^4 + x^3 + x + 1
    16: 0x1100B,   # x^16 + x^12 + x^3 + x + 1
}

STANDARD_WIDTHS = (4, 8, 16)


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m, both polynomials over GF(2)."""
    dm = _poly_degree(m)
    while a and _poly_degree(a) >= dm:
        a ^= m << (_poly_degree(a) - dm)
    return a


def is_irreducible(poly: int, w: int) -> bool:
    """Exhaustive divisor check: no monic factor of degree 1..w//2."""
    if _poly_degree(poly) != w:
        return False
    for k in range(1, w // 2 + 1):
        for low in range(1 << k):
            if _poly_mod(poly, (1 << k) | low) == 0:
                return False
    return True


def _slow_mul(a, b: int, poly: int, w: int):
    """Shift-and-reduce polynomial product of ``a`` (an int, or an int64
    array, elementwise) and the int ``b``; used only to build tables."""
    result = a * 0
    for i in range(w):
        if (b >> i) & 1:
            result ^= a << i
    for i in range(2 * w - 2, w - 1, -1):
        result ^= ((result >> i) & 1) * (poly << (i - w))
    return result & ((1 << w) - 1)


class OsRandom:
    """A private random source that cannot be replayed: the operating
    system's, read through the two draws a session makes of a numpy
    Generator, ``bytes`` and :meth:`GF.random_symbols`."""

    def bytes(self, length: int) -> bytes:
        return os.urandom(length)


class GF:
    """Finite field GF(2^w) defined by an irreducible reduction polynomial.

    Immutable after construction; all operations are pure functions, so one
    instance may be shared freely across threads.
    """

    def __init__(self, w: int, poly: int | None = None):
        if not 1 <= w <= 16:
            raise ParameterError(f"unsupported field width {w} (need 1..16)")
        if poly is None:
            if w not in DEFAULT_POLYNOMIALS:
                raise ParameterError(f"no default reduction polynomial for width {w}")
            poly = DEFAULT_POLYNOMIALS[w]
        if not is_irreducible(poly, w):
            raise ParameterError(
                f"polynomial {poly:#x} is not irreducible of degree {w}"
            )
        self.w = w
        self.q = 1 << w
        self.poly = poly
        self.dtype = np.uint8 if w <= 8 else np.uint16
        self._build_tables()

    def _build_tables(self) -> None:
        q = self.q
        order = q - 1
        if q == 2:
            generator, alog = 1, np.ones(1, dtype=np.int64)
        else:
            # candidates in increasing order; the first of multiplicative
            # order q - 1 is the generator
            generator = None
            for g in range(2, q):
                powers = self._powers(g, order)
                if not (powers[1:] == 1).any():
                    generator, alog = g, powers
                    break
            if generator is None:  # unreachable for an irreducible polynomial
                raise ParameterError(f"no generator found for {self!r}")
        self.generator = generator
        # alog doubled-and-padded so mul needs no modular reduction: indices
        # past 2*order land in the zero region reached via the log-0 sentinel.
        table = np.zeros(4 * order + 1, dtype=self.dtype)
        exps = alog.astype(self.dtype)
        table[:order] = exps
        table[order:2 * order] = exps[: order]
        self._alog = table
        log = np.full(q, 2 * order, dtype=np.int32)  # sentinel for 0
        log[exps] = np.arange(order, dtype=np.int32)
        self._log = log
        self._order = order
        inv = np.zeros(q, dtype=self.dtype)
        nz = np.arange(1, q)
        inv[nz] = self._alog[(order - self._log[nz]) % order]
        self._inv = inv

    def _powers(self, g: int, count: int) -> np.ndarray:
        """g^0 .. g^(count-1) by doubling: the next block of powers is the
        block so far times g^(2^k), one vectorised shift-and-reduce."""
        powers = np.empty(count, dtype=np.int64)
        powers[0] = 1
        done, step = 1, g
        while done < count:
            size = min(done, count - done)
            powers[done:done + size] = _slow_mul(powers[:size], step, self.poly, self.w)
            step = _slow_mul(step, step, self.poly, self.w)
            done += size
        return powers

    # -- element operations (scalars or arrays) -----------------------------

    def mul(self, a, b):
        # ``take`` gathers faster than a fancy index and, like it, raises
        # IndexError on a symbol outside the field
        out = self._alog.take(self._log.take(a) + self._log.take(b))
        if np.ndim(out) == 0:
            return int(out)
        return out

    def inv(self, a):
        if np.ndim(a) == 0:
            if a == 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return int(self._inv[a])
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a, e: int):
        """a raised to a nonnegative integer power (scalar or array a)."""
        if e < 0:
            raise ParameterError("negative exponent; use inv() first")
        scalar = np.ndim(a) == 0
        arr = np.atleast_1d(np.asarray(a, dtype=self.dtype))
        if e == 0:
            out = np.ones_like(arr)
        else:
            out = np.zeros_like(arr)
            nz = arr != 0
            out[nz] = self._alog[
                (self._log[arr[nz]].astype(np.int64) * e) % self._order
            ]
        return int(out[0]) if scalar else out

    def contains(self, arr) -> bool:
        """Whether ``arr`` holds only integers in [0, q): symbols that a cast
        to the field's dtype keeps, where it would wrap 256 + x to x."""
        arr = np.asarray(arr)
        return np.issubdtype(arr.dtype, np.integer) and not ((arr < 0) | (arr >= self.q)).any()

    def random_symbols(self, rng, shape) -> np.ndarray:
        """Uniform symbols from a numpy Generator, or from an :class:`OsRandom`'s
        bytes: q = 2^w, so bytes masked to w bits are uniform symbols."""
        if isinstance(rng, OsRandom):
            data = rng.bytes(math.prod(shape) * np.dtype(self.dtype).itemsize)
            return (np.frombuffer(data, self.dtype) & (self.q - 1)).reshape(shape)
        return rng.integers(0, self.q, size=shape, dtype=self.dtype)

    # -- wire packing --------------------------------------------------------

    def packed_size(self, count: int) -> int:
        if self.w == 4:
            return (count + 1) // 2
        return count * (2 if self.w == 16 else 1)

    def pack(self, symbols) -> bytes:
        arr = np.ascontiguousarray(symbols, dtype=self.dtype).ravel()
        if self.w == 4:
            if arr.size % 2:
                arr = np.concatenate([arr, np.zeros(1, dtype=self.dtype)])
            return (arr[0::2] | (arr[1::2] << 4)).astype(np.uint8).tobytes()
        if self.w == 16:
            return arr.astype("<u2").tobytes()
        return arr.astype(np.uint8).tobytes()

    def unpack(self, data: bytes, count: int) -> np.ndarray:
        if len(data) != self.packed_size(count):
            raise ParameterError(
                f"packed data holds {len(data)} bytes, expected "
                f"{self.packed_size(count)} for {count} symbols"
            )
        if self.w == 4:
            raw = np.frombuffer(data, dtype=np.uint8)
            out = np.empty(raw.size * 2, dtype=self.dtype)
            out[0::2] = raw & 0x0F
            out[1::2] = raw >> 4
            return out[:count]
        if self.w == 16:
            return np.frombuffer(data, dtype="<u2").astype(self.dtype)[:count]
        return np.frombuffer(data, dtype=np.uint8).astype(self.dtype)[:count]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GF) and (self.w, self.poly) == (other.w, other.poly)

    def __hash__(self):
        return hash((self.w, self.poly))

    def __repr__(self):
        return f"GF(2^{self.w}, poly={self.poly:#x})"


@lru_cache(maxsize=None)
def standard_field(w: int) -> GF:
    """The protocol field of width w with its default polynomial (cached)."""
    if w not in STANDARD_WIDTHS:
        raise ParameterError(f"protocol field width must be one of {STANDARD_WIDTHS}")
    return GF(w)

