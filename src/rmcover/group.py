"""GF(2) matrix algebra and the affine general linear group AGL(m,2).

Matrices are tuples of int row masks: bit j of rows[i] is the entry in row i,
column j.  Vectors are plain ints (bit j = coordinate j+1).  An affine map
s = (A, a) acts on points by s(x) = A*x + a and must have invertible A.
Batches go through a linear map by the Four Russians method
(``subset_tables``, ``xor_lookup``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterable, Optional, Sequence

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a matrix expected to be invertible over GF(2) is not."""


def matvec(rows: Sequence[int], x: int) -> int:
    """Multiply the bit matrix by the vector x over GF(2)."""
    y = 0
    for i, row in enumerate(rows):
        y |= ((row & x).bit_count() & 1) << i
    return y


def mat_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Row-mask product: row i of a*b is the GF(2) sum of rows of b selected by a[i]."""
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def identity_rows(m: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(m))


def transpose_rows(rows: Sequence[int], m: int) -> tuple[int, ...]:
    out = [0] * m
    for i, row in enumerate(rows):
        for j in range(m):
            out[j] |= ((row >> j) & 1) << i
    return tuple(out)


def gf2_echelon(vectors: Iterable[int]) -> list[int]:
    """Echelon basis of the span of vectors over GF(2), highest pivot first.

    The top bit of each basis vector is its pivot, and no later vector has
    that bit set.  Vectors are taken greedily: each one that is independent
    of those before it adds one basis vector.
    """
    basis: list[int] = []
    for v in vectors:
        v = gf2_reduce(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def gf2_reduce(key: int, basis: Sequence[int]) -> int:
    """The smallest element of key + span(basis), for an echelon basis.

    Clearing each pivot bit in turn, highest first, leaves the unique coset
    element with no pivot bit set, which is the smallest one.
    """
    for b in basis:
        key = min(key, key ^ b)
    return key


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by elimination on int bitsets."""
    return len(gf2_echelon(rows))


def invert_rows(rows: Sequence[int], m: int) -> tuple[int, ...]:
    """Invert an m x m bit matrix; raises SingularMatrixError if rank < m."""
    work = list(rows)
    inv = list(identity_rows(m))
    for col in range(m):
        pivot = None
        for r in range(col, m):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError("matrix is singular over GF(2)")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(m):
            if r != col and ((work[r] >> col) & 1):
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return tuple(inv)


def subset_tables(rows: np.ndarray, width: int) -> np.ndarray:
    """Four Russians tables of a GF(2)-linear map: (groups, 2^width, ...).

    Row j of the integer array ``rows`` is the image of input bit j, a
    scalar or an array.  The rows go in groups of ``width``, zero rows
    filling the last group, and entry v of group g is the XOR of the rows
    g*width + j over the bits j of v; an input's image is the XOR of one
    entry per group, at its bits of that group (``xor_lookup``).  This is
    the method of M4RI (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
    """
    groups = max(1, -(-len(rows) // width))
    tables = np.zeros((groups, 1 << width) + rows.shape[1:], dtype=rows.dtype)
    for j in range(width):
        # entries with top bit j: those below it plus row j, where a group has one
        below, above, has = tables[:, : 1 << j], tables[:, 1 << j : 2 << j], len(rows[j::width])
        np.bitwise_xor(below[:has], rows[j::width, None], out=above[:has])
        above[has:] = below[has:]
    return tables


def xor_lookup(tables: np.ndarray, indices: Iterable, out: Optional[np.ndarray] = None):
    """The XOR over the groups of ``tables`` of one entry each, into ``out`` if given.

    ``indices`` gives each group's index array in turn, so a caller can make
    them one group at a time; the result has the indices' shape followed by
    the entries'.
    """
    for table, index in zip(tables, indices):
        if out is None:
            out = table.take(index, axis=0)
        else:
            out ^= table.take(index, axis=0)
    return out


@dataclass(frozen=True)
class AffineTransformation:
    """Invertible affine map x -> A*x + a on F_2^m."""

    m: int
    rows: tuple[int, ...]
    trans: int = 0

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError("row count does not match dimension")
        mask = (1 << self.m) - 1
        if any(row & ~mask for row in self.rows) or self.trans & ~mask:
            raise ValueError("mask exceeds dimension")
        if gf2_rank(self.rows) != self.m:
            raise SingularMatrixError("linear part is singular")

    def apply(self, x: int) -> int:
        return matvec(self.rows, x) ^ self.trans


def _invertible(m: int, rows: tuple[int, ...], trans: int) -> AffineTransformation:
    """An AffineTransformation built without the checks of the constructor.

    Only for products and inverses of validated maps, which are invertible by
    construction; everything else goes through the validating constructor.
    """
    s = object.__new__(AffineTransformation)
    object.__setattr__(s, "m", m)
    object.__setattr__(s, "rows", rows)
    object.__setattr__(s, "trans", trans)
    return s


def identity(m: int) -> AffineTransformation:
    return AffineTransformation(m, identity_rows(m), 0)


def translation(m: int, a: int) -> AffineTransformation:
    return AffineTransformation(m, identity_rows(m), a)


def compose(s1: AffineTransformation, s2: AffineTransformation) -> AffineTransformation:
    """Composition s1(s2(x)): A = A1*A2, a = A1*a2 + a1."""
    if s1.m != s2.m:
        raise ValueError("dimension mismatch")
    return _invertible(
        s1.m, mat_mul(s1.rows, s2.rows), matvec(s1.rows, s2.trans) ^ s1.trans
    )


def invert(s: AffineTransformation) -> AffineTransformation:
    inv = invert_rows(s.rows, s.m)
    return _invertible(s.m, inv, matvec(inv, s.trans))


def random_affine(m: int, rng: Random) -> AffineTransformation:
    """Uniform element of AGL(m,2): rejection-sample the linear part on rank."""
    while True:
        rows = tuple(rng.getrandbits(m) for _ in range(m))
        if gf2_rank(rows) == m:
            return AffineTransformation(m, rows, rng.getrandbits(m))


def transvection(v: int, theta: int, m: int) -> AffineTransformation:
    """The map x -> x + theta(x)*v where theta is a linear-form mask with theta(v)=0."""
    if v == 0:
        raise ValueError("direction must be nonzero")
    if (theta & v).bit_count() & 1:
        raise ValueError("theta(v) must vanish")
    rows = list(identity_rows(m))
    for i in range(m):
        if (v >> i) & 1:
            rows[i] ^= theta
    return AffineTransformation(m, tuple(rows), 0)


def agl_generators(m: int) -> list[AffineTransformation]:
    """A small generating set of AGL(m,2).

    Adjacent elementary transvections x_i += x_{i+1}, one coordinate cycle and
    a unit translation; the generated closure is the full group.
    """
    gens = []
    for i in range(m - 1):
        rows = list(identity_rows(m))
        rows[i] |= 1 << (i + 1)
        gens.append(AffineTransformation(m, tuple(rows), 0))
    if m >= 2:
        cycle = tuple(1 << ((i + 1) % m) for i in range(m))
        gens.append(AffineTransformation(m, cycle, 0))
    gens.append(translation(m, 1))
    return gens


def agl_order(m: int) -> int:
    """|AGL(m,2)| = 2^m * prod_{i<m} (2^m - 2^i)."""
    order = 1 << m
    for i in range(m):
        order *= (1 << m) - (1 << i)
    return order


def base_images(s: AffineTransformation) -> tuple[int, ...]:
    """Images of the affine base 0, e_1, ..., e_m under s, which determine s."""
    return (s.trans,) + tuple(c ^ s.trans for c in transpose_rows(s.rows, s.m))


def from_base_images(m: int, images: Sequence[int]) -> AffineTransformation:
    """The affine map with the given images of the base 0, e_1, ..., e_m."""
    return AffineTransformation(
        m, transpose_rows([b ^ images[0] for b in images[1:]], m), images[0]
    )


def point_table(images: Sequence[int]) -> list[int]:
    """s(x) for every point x, in point order, from the base images of s.

    The points with top bit i are those below 2^i moved by column i of the
    linear part, so the table doubles once per base vector.
    """
    table = [images[0]]
    for b in images[1:]:
        column = b ^ images[0]
        table += [y ^ column for y in table]
    return table


def inverse_table(table: Sequence[int]) -> list[int]:
    """The point table of the inverse map."""
    return sorted(range(len(table)), key=table.__getitem__)


class _StabilizerChain:
    """Stabilizer chain of a subgroup of AGL(m,2), grown by Schreier-Sims.

    The base is the affine basis 0, e_1, ..., e_m, which only the identity
    fixes, so an element is its base images (``base_images``) and a product
    g o h has the base images g(h(b)), read off the point table of g
    (``point_table``).  Level i keeps the point tables of the strong
    generators that fix base[:i] and the orbit of base[i] under them: a dict
    from each point p to the point table of the inverse of a coset
    representative that maps base[i] to p, and one to the representative's
    base images.  Sifting is one dict lookup and m + 1 table reads a level.
    After ``add`` every Schreier generator of a level sifts through the
    levels below it, so the group order is the product of the orbit
    lengths; ``extend`` skips that check.

    ``order`` is the order of a group known to contain every element added,
    such as |AGL| / |orbit| for a stabilizer.  Each stored orbit lies in the
    orbit of base[i] under the elements of the generated group H that fix
    base[:i], so the product of their lengths is at most |H|, which is at
    most ``order``; once the product reaches it, the chain is complete and
    ``add`` returns without visiting the Schreier generators left over.
    """

    def __init__(self, m: int, order: int):
        self.target = order
        self.base = (0,) + tuple(1 << i for i in range(m))
        ident = point_table(self.base)
        self.gens: list[list[list[int]]] = [[] for _ in self.base]  # point tables
        self.orbits = [{b: ident} for b in self.base]  # p -> inverse representative's table
        self._forward = [{b: self.base} for b in self.base]  # p -> representative's base images
        self._checked: list[set[tuple[int, int]]] = [set() for _ in self.base]

    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self.orbits)

    def sift(self, images: Sequence[int], level: int = 0):
        """Strip the element with these base images by the coset
        representatives from level on.

        Returns the residue's base images and the level whose orbit misses
        its image of the base point, or None as the level when the element
        is in the group.
        """
        for i in range(level, len(self.base)):
            inv = self.orbits[i].get(images[i])
            if inv is None:
                return images, i
            images = [inv[b] for b in images]
        return images, None

    def contains(self, g: AffineTransformation) -> bool:
        return self.sift(base_images(g))[1] is None

    def add(self, g: AffineTransformation) -> bool:
        """Extend the group by g; False if g is in it."""
        return self.add_images(base_images(g))

    def extend(self, images: Sequence[int], level: int = 0) -> Optional[int]:
        """Keep the residue of the element with these base images, which
        fixes base[:level], as a strong generator, without visiting
        Schreier generators.

        The residue fixes base[:j] for the level j whose orbit missed it, so
        it joins the generators of levels 0 .. j, and each of those orbits
        is closed under its generators, the new one's images of every point
        and every generator's images of the new points.  An edge that
        reaches a new point is marked checked: its Schreier generator is
        the identity.  Returns j, or None when the element sifts through.
        """
        images, j = self.sift(images, level)
        if j is None:
            return None
        table = point_table(images)
        for i in range(j + 1):
            orbit, forward, gens = self.orbits[i], self._forward[i], self.gens[i]
            gens.append(table)
            old = len(orbit)
            points = list(orbit)
            for n, p in enumerate(points):  # grows as the orbit does
                for k in range(len(gens) - 1 if n < old else 0, len(gens)):
                    q = gens[k][p]
                    if q not in orbit:
                        x = [gens[k][b] for b in forward[p]]
                        forward[q] = x
                        orbit[q] = inverse_table(point_table(x))
                        self._checked[i].add((p, k))
                        points.append(q)
        return j

    def add_images(self, images: Sequence[int], level: int = 0) -> bool:
        """Extend the group by the element with these base images, which
        fixes base[:level], and sift every Schreier generator this leaves
        unchecked; False if the element is in the group."""
        j = self.extend(images, level)
        if j is None:
            return False
        # the order grows only with an orbit, here or in an extending nested add
        if self.order() == self.target:
            return True
        for i in range(j, -1, -1):
            forward, gens, checked = self._forward[i], self.gens[i], self._checked[i]
            # a nested add may grow this level too; loop until every
            # (point, generator) pair has been visited
            while pending := [
                (p, k) for p in forward for k in range(len(gens)) if (p, k) not in checked
            ]:
                for p, k in pending:
                    if (p, k) in checked:
                        continue
                    checked.add((p, k))
                    x = [gens[k][b] for b in forward[p]]
                    if self.add_images(x, i) and self.order() == self.target:
                        return True
        return True
