"""Bit-exact Boolean function algebra on int-packed truth tables.

Point convention, fixed for every serialization and test in this package:
a point x in F_2^m is the integer whose bit j-1 is the coordinate x_j, so
x_1 is the least significant bit.  A truth table is the 2^m-bit integer with
bit i = f(point i).  An ANF coefficient vector is the 2^m-bit integer with
bit S = coefficient of the monomial prod_{j in S} x_j (S a subset mask).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import AffineTransformation, base_images, point_table

MAX_VARS = 16

_LETTERS = "abcdefghijklmnop"


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {m}")


@lru_cache(maxsize=None)
def _low_bit_mask(i: int, m: int) -> int:
    """Mask of the positions x < 2^m whose index bit i is zero."""
    step = 1 << i
    period = step << 1
    mask = (1 << step) - 1
    width = period
    n = 1 << m
    while width < n:
        mask |= mask << width
        width <<= 1
    return mask


def mobius_transform(bits: int, m: int) -> int:
    """Binary Moebius/zeta transform of a 2^m-bit vector; an involution.

    Maps a truth table to its ANF coefficient vector and back.
    """
    _check_m(m)
    if bits >> (1 << m):
        raise ValueError("bit vector longer than 2^m")
    for i in range(m):
        bits ^= (bits & _low_bit_mask(i, m)) << (1 << i)
    return bits


def _butterflies(w: np.ndarray):
    """Views (a, b) of the two halves of each block of 2, 4, .., len(w) rows."""
    n = len(w)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    for i in range(n.bit_length() - 1):
        view = w.reshape(n >> (i + 1), 2, 1 << i, *w.shape[1:])
        yield view[:, 0], view[:, 1]


def wht(values) -> np.ndarray:
    """Integer Walsh-Hadamard transform along axis 0, without normalization.

    Returns a new array of the input's integer type (int64 for a list); each
    column of a 2-D input is transformed on its own.  Every butterfly
    updates a reshaped view of the copy in place: (a, b) -> (a + b, a - b).
    """
    w = np.array(values, order="C")
    for a, b in _butterflies(w):
        a += b
        b *= -2
        b += a
    return w


def mobius(values) -> np.ndarray:
    """``mobius_transform`` of each column along axis 0, into a new array as
    ``wht`` does: (a, b) -> (a, a ^ b)."""
    w = np.array(values, order="C")
    for a, b in _butterflies(w):
        b ^= a
    return w


def translate_truth_table(tt: int, v: int, m: int) -> int:
    """Truth table of x -> f(x + v)."""
    r = v
    while r:
        low = r & -r
        i = low.bit_length() - 1
        step = 1 << i
        mask = _low_bit_mask(i, m)
        tt = ((tt & mask) << step) | ((tt >> step) & mask)
        r ^= low
    return tt


@dataclass(frozen=True)
class BooleanFunction:
    """A Boolean function on m variables as a 2^m-bit truth table."""

    m: int
    tt: int

    def __post_init__(self):
        _check_m(self.m)
        if self.tt >> (1 << self.m):
            raise ValueError("truth table longer than 2^m bits")

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return BooleanFunction(self.m, self.tt ^ other.tt)

    def value(self, x: int) -> int:
        return (self.tt >> x) & 1


@dataclass(frozen=True)
class AnfPolynomial:
    """ANF coefficient vector: bit S = coefficient of the monomial X_S."""

    m: int
    coeffs: int

    def __post_init__(self):
        _check_m(self.m)
        if self.coeffs >> (1 << self.m):
            raise ValueError("coefficient vector longer than 2^m bits")

    def __xor__(self, other: "AnfPolynomial") -> "AnfPolynomial":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return AnfPolynomial(self.m, self.coeffs ^ other.coeffs)


def to_anf(f: BooleanFunction) -> AnfPolynomial:
    return AnfPolynomial(f.m, mobius_transform(f.tt, f.m))


def from_anf(p: AnfPolynomial) -> BooleanFunction:
    return BooleanFunction(p.m, mobius_transform(p.coeffs, p.m))


def weight(f: BooleanFunction) -> int:
    """Hamming weight of the truth table."""
    return f.tt.bit_count()


def anf_degree(coeffs: int) -> float:
    """Max popcount of a set monomial mask; -inf for the zero polynomial."""
    deg = -math.inf
    while coeffs:
        low = coeffs & -coeffs
        d = (low.bit_length() - 1).bit_count()
        if d > deg:
            deg = d
        coeffs ^= low
    return deg


def degree(f: BooleanFunction) -> float:
    return anf_degree(to_anf(f).coeffs)


def dirac(a: int, m: int) -> BooleanFunction:
    """The indicator of the single point a; weight 1, degree m."""
    _check_m(m)
    if a >> m:
        raise ValueError("point outside F_2^m")
    return BooleanFunction(m, 1 << a)


def apply_affine(f: BooleanFunction, s: AffineTransformation) -> BooleanFunction:
    """The composition f(s(x)) pointwise."""
    if f.m != s.m:
        raise ValueError("dimension mismatch")
    tt = f.tt
    out = 0
    for x, y in enumerate(point_table(base_images(s))):
        out |= ((tt >> y) & 1) << x
    return BooleanFunction(f.m, out)


def derivative(f: BooleanFunction, v: int) -> BooleanFunction:
    """Directional derivative x -> f(x+v) + f(x)."""
    return BooleanFunction(f.m, f.tt ^ translate_truth_table(f.tt, v, f.m))


def is_periodic(f: BooleanFunction, v: int) -> bool:
    """True iff f(x+v) = f(x) for all x."""
    return translate_truth_table(f.tt, v, f.m) == f.tt


def restrict(f: BooleanFunction, v: int) -> BooleanFunction:
    """Restriction of a v-periodic f to the canonical supplementary of v.

    The pivot is the highest set coordinate of v; the supplementary is the
    span of the other unit vectors, re-indexed in ascending order.  The
    result does not depend on this choice up to affine equivalence.
    """
    if v == 0:
        raise ValueError("direction must be nonzero")
    if v >> f.m:
        raise ValueError("direction outside F_2^m")
    if not is_periodic(f, v):
        raise ValueError("function is not periodic in this direction")
    if f.m < 2:
        raise ValueError("cannot restrict below one variable")
    pivot = v.bit_length() - 1
    step = 1 << pivot
    chunk = (1 << step) - 1
    out = 0
    for b in range(1 << (f.m - 1 - pivot)):
        out |= ((f.tt >> (b * 2 * step)) & chunk) << (b * step)
    return BooleanFunction(f.m - 1, out)


# --- serialization ---------------------------------------------------------


def tt_to_hex(f: BooleanFunction) -> str:
    """Hex truth table, most significant nibble first."""
    width = max(1, (1 << f.m) // 4)
    return format(f.tt, f"0{width}x")


def tt_from_hex(text: str, m: int) -> BooleanFunction:
    _check_m(m)
    width = max(1, (1 << m) // 4)
    if len(text) != width:
        raise ValueError(f"expected {width} hex digits for m={m}, got {len(text)}")
    return BooleanFunction(m, int(text, 16))


def monomial_to_string(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(_LETTERS[i] for i in range(mask.bit_length()) if (mask >> i) & 1)


def anf_to_string(p: AnfPolynomial) -> str:
    """ANF as a monomial list, a..p standing for x_1..x_16, e.g. "abc+ab+1"."""
    if p.coeffs == 0:
        return "0"
    masks = []
    c = p.coeffs
    while c:
        low = c & -c
        masks.append(low.bit_length() - 1)
        c ^= low
    masks.sort(key=lambda s: (-s.bit_count(), s))
    return "+".join(monomial_to_string(s) for s in masks)


def anf_from_string(text: str, m: int) -> AnfPolynomial:
    _check_m(m)
    text = text.strip()
    if text in ("0", ""):
        return AnfPolynomial(m, 0)
    coeffs = 0
    for term in text.split("+"):
        term = term.strip()
        if term == "1":
            mask = 0
        else:
            mask = 0
            for ch in term:
                idx = _LETTERS.find(ch)
                if idx < 0 or idx >= m:
                    raise ValueError(f"variable {ch!r} outside x_1..x_{m}")
                bit = 1 << idx
                if mask & bit:
                    raise ValueError(f"repeated variable in monomial {term!r}")
                mask |= bit
        coeffs ^= 1 << mask
    return AnfPolynomial(m, coeffs)


def parse_function(text: str, m: int) -> BooleanFunction:
    """Parse "hex:..." or "anf:..."; an unprefixed string is read as ANF."""
    text = text.strip()
    if text.startswith("hex:"):
        return tt_from_hex(text[4:].strip(), m)
    if text.startswith("anf:"):
        text = text[4:]
    return from_anf(anf_from_string(text, m))
