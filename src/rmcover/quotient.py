"""Quotient spaces of Boolean functions with a valuation/degree window.

The space with parameters (s, t, m) holds the functions on m variables whose
ANF is supported on monomial degrees s..t; it represents functions of degree
at most t taken modulo the ones of degree below s.  Elements are stored as
canonical keys: the bit at position j of a key is the coefficient of the
j-th monomial mask in ascending mask order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import boolfun as bf
from .boolfun import AnfPolynomial, BooleanFunction
from .group import AffineTransformation, gf2_echelon, gf2_reduce


@lru_cache(maxsize=None)
def quotient_space(s: int, t: int, m: int) -> "QuotientSpace":
    return QuotientSpace(max(s, 0), t, m)


class QuotientSpace:
    """Monomial basis and key packing for one (s, t, m) window."""

    __slots__ = ("s", "t", "m", "masks", "index", "dim", "support")

    def __init__(self, s: int, t: int, m: int):
        if not 1 <= m <= bf.MAX_VARS:
            raise ValueError("variable count out of range")
        self.s = s
        self.t = t
        self.m = m
        self.masks = tuple(
            mask for mask in range(1 << m) if s <= mask.bit_count() <= t
        )
        self.index = {mask: j for j, mask in enumerate(self.masks)}
        self.dim = len(self.masks)
        support = 0
        for mask in self.masks:
            support |= 1 << mask
        self.support = support

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.s, self.t, self.m)

    def key_from_anf(self, coeffs: int) -> int:
        """Pack the in-window coefficients of an ANF vector; drops the rest."""
        key = 0
        c = coeffs & self.support
        while c:
            low = c & -c
            key |= 1 << self.index[low.bit_length() - 1]
            c ^= low
        return key

    def anf_from_key(self, key: int) -> int:
        coeffs = 0
        while key:
            low = key & -key
            coeffs |= 1 << self.masks[low.bit_length() - 1]
            key ^= low
        return coeffs

    def function(self, key: int) -> "QuotientFunction":
        if key >> self.dim:
            raise ValueError("key outside the space")
        return QuotientFunction(self, key)

    def zero(self) -> "QuotientFunction":
        return QuotientFunction(self, 0)

    def __repr__(self):
        return f"QuotientSpace{self.params}"


@dataclass(frozen=True)
class QuotientFunction:
    """Canonical representative of an element of a quotient space."""

    space: QuotientSpace
    key: int

    @property
    def s(self) -> int:
        return self.space.s

    @property
    def t(self) -> int:
        return self.space.t

    @property
    def m(self) -> int:
        return self.space.m

    @property
    def anf(self) -> int:
        return self.space.anf_from_key(self.key)

    def lift(self) -> BooleanFunction:
        """The unique lift whose ANF has no coefficient below degree s."""
        return bf.from_anf(AnfPolynomial(self.m, self.anf))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientFunction)
            and self.space.params == other.space.params
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.space.params, self.key))

    def __xor__(self, other: "QuotientFunction") -> "QuotientFunction":
        if self.space.params != other.space.params:
            raise ValueError("space mismatch")
        return QuotientFunction(self.space, self.key ^ other.key)

    def __repr__(self):
        s, t, m = self.space.params
        return f"({s},{t},{m}):{bf.anf_to_string(AnfPolynomial(m, self.anf))}"


def parse_quotient(text: str) -> QuotientFunction:
    """Parse the "(s,t,m):monomials" form produced by repr."""
    head, _, body = text.partition(":")
    head = head.strip()
    if not (head.startswith("(") and head.endswith(")")):
        raise ValueError(f"malformed quotient header {head!r}")
    s, t, m = (int(p) for p in head[1:-1].split(","))
    space = quotient_space(s, t, m)
    anf = bf.anf_from_string(body, m)
    if anf.coeffs & ~space.support:
        raise ValueError("monomials outside the space window")
    return space.function(space.key_from_anf(anf.coeffs))


def project(p: AnfPolynomial, s: int, t: int) -> QuotientFunction:
    """Drop coefficients below degree s; error if the degree exceeds t."""
    if bf.anf_degree(p.coeffs) > t:
        raise ValueError(f"degree exceeds {t}")
    space = quotient_space(s, t, p.m)
    return space.function(space.key_from_anf(p.coeffs))


def q_apply_affine(qf: QuotientFunction, s: AffineTransformation) -> QuotientFunction:
    """Induced action: compose the canonical lift and project back."""
    if qf.m != s.m:
        raise ValueError("dimension mismatch")
    tt = bf.apply_affine(qf.lift(), s)
    return qf.space.function(qf.space.key_from_anf(bf.mobius_transform(tt.tt, tt.m)))


def lower_window(s: int, t: int, m: int) -> tuple[int, int, int]:
    """Parameters of the window one below (s, t, m): that of the g in
    x_m * g + h, and of the restricted derivatives behind the class maps."""
    return (max(s - 1, 0), t - 1, m - 1)


@dataclass(frozen=True)
class Decomposition:
    """f = x_m * g + h with g one window lower and h one variable shorter."""

    g: QuotientFunction
    h: QuotientFunction


def decompose(qf: QuotientFunction) -> Decomposition:
    """Split off the last variable: monomials containing x_m feed g.

    Keys list monomials in ascending mask order, so the masks without x_m
    come first, and they are the (s, t, m-1) window of h in its own order;
    the masks with x_m follow as x_m times the masks of the g window, again
    in that window's order.  The split is therefore a bit split of the key:
    key(f) = key(h) | key(g) << dim(h).
    """
    if qf.m < 2:
        raise ValueError("need at least two variables to decompose")
    g_space = quotient_space(*lower_window(*qf.space.params))
    h_space = quotient_space(qf.s, qf.t, qf.m - 1)
    return Decomposition(
        g_space.function(qf.key >> h_space.dim),
        h_space.function(qf.key & ((1 << h_space.dim) - 1)),
    )


def compose_decomposition(g: QuotientFunction, h: QuotientFunction) -> QuotientFunction:
    """Inverse of decompose: x_m * g + h in the (s, t, m) window."""
    if g.space.params != lower_window(h.s, h.t, h.m + 1):
        raise ValueError("incompatible decomposition parameters")
    return quotient_space(h.s, h.t, h.m + 1).function(h.key | g.key << h.space.dim)


def multiply_affine_form(alpha_anf: int, qf: QuotientFunction, s: int, t: int) -> QuotientFunction:
    """Product of an affine form (ANF on masks of degree <= 1) with a lift of qf,
    projected into the (s, t, m) window; well defined on the quotient."""
    f = bf.from_anf(AnfPolynomial(qf.m, alpha_anf))
    prod = f.tt & qf.lift().tt
    space = quotient_space(s, t, qf.m)
    return space.function(space.key_from_anf(bf.mobius_transform(prod, qf.m)))


def delta_space_basis(qf: QuotientFunction) -> list[QuotientFunction]:
    """Unit-direction derivatives of qf in the (t-1, t-1, m) window.

    Only defined on windows with s = t-1.  Taken modulo degree t-2 the
    derivative is linear in the direction, so these m elements span the
    derivatives along every direction.
    """
    if qf.s != qf.t - 1:
        raise ValueError("delta basis requires a window with s = t-1")
    target = quotient_space(qf.t - 1, qf.t - 1, qf.m)
    lift = qf.lift()
    out = []
    for i in range(qf.m):
        der = bf.derivative(lift, 1 << i)
        out.append(target.function(target.key_from_anf(bf.mobius_transform(der.tt, der.m))))
    return out


def delta_membership(qf_base: QuotientFunction, candidate: QuotientFunction) -> Optional[int]:
    """A direction a with derivative(qf_base, a) equal to candidate, or None.

    The candidate may carry a degree-t component (it is then rejected) or
    live directly in the derivative window (t-1, t-1, m).  When several
    directions work, the one returned is supported on the unit directions
    whose derivatives are independent of those of the lower unit directions.
    """
    if qf_base.s != qf_base.t - 1:
        raise ValueError("delta membership requires a window with s = t-1")
    m = qf_base.m
    t = qf_base.t
    target_space = quotient_space(t - 1, t - 1, m)
    if candidate.m != m:
        raise ValueError("dimension mismatch")
    if candidate.space.params == qf_base.space.params:
        anf = candidate.anf
        if bf.anf_degree(anf) > t - 1:
            return None
        target = target_space.key_from_anf(anf)
    elif candidate.space.params == target_space.params:
        target = candidate.key
    else:
        raise ValueError("candidate parameters are incompatible")

    reduced = gf2_reduce(target << m, _delta_echelon(qf_base))
    return None if reduced >> m else reduced


@lru_cache(maxsize=16)
def _delta_echelon(qf_base: QuotientFunction) -> tuple[int, ...]:
    """Echelon basis of key_j * 2^m + e_j over the unit-direction derivatives.

    The low m bits track the directions combined, so reducing target * 2^m
    clears the key bits of a member and leaves its direction in the low
    bits.  The equivalence search asks about one base function for every
    candidate, hence the cache.
    """
    m = qf_base.m
    return tuple(
        gf2_echelon((b.key << m) | (1 << j) for j, b in enumerate(delta_space_basis(qf_base)))
    )


def action_matrix(space: QuotientSpace, s: AffineTransformation) -> list[int]:
    """Key images of the basis monomials under the induced action.

    The induced action is linear on the quotient, so applying s to any key is
    the XOR of the images of its set bits.
    """
    if space.m != s.m:
        raise ValueError("dimension mismatch")
    points = bf.affine_point_map(s)
    images = []
    for mask in space.masks:
        tt = 0
        for x, y in enumerate(points):
            if y & mask == mask:
                tt |= 1 << x
        images.append(space.key_from_anf(bf.mobius_transform(tt, space.m)))
    return images


def apply_key(images: list[int], key: int) -> int:
    """Image of one key under the linear map taking bit j to images[j]."""
    out = 0
    while key:
        low = key & -key
        out ^= images[low.bit_length() - 1]
        key ^= low
    return out
