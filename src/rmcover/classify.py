"""Orbit classification of quotient windows under AGL(m,2).

The exact oracle is a breadth-first closure over the whole window, feasible
whenever 2^dim fits the guard.  Larger windows go through the cover-set
pipeline.  It decomposes along the last variable, f = x_m * g + h, keeps one
g per class of the lower window, and walks the h part under the stabilizer
of g and the translations h -> h + alpha*g.  The surviving entries are the
orbits of P, the affine maps whose linear part fixes e_m.  Every element of
AGL(m,2) is A_v p with p in P, for one linear map A_v per direction v, the
image of e_m; so the class of an entry is the union of the P-orbits of
entry o A_v over the 2^m - 1 directions.  The pipeline reads those P-orbits
off as labels, walking keys back along the Schreier vectors of the lower
window's BFS and of the h walks.  This is Schmalz's ladder game, the
Leiterspiel (B. Schmalz, Bayreuther Math. Schr. 31, 1990).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Optional, Sequence

import numpy as np

from . import boolfun as bf
from .common import SpaceTooLargeError, write_text_atomic
from .group import (
    AffineTransformation,
    _StabilizerChain,
    agl_generators,
    agl_order,
    base_images,
    from_base_images,
    gf2_echelon,
    gf2_reduce,
    identity,
    invert,
    random_affine,
    subset_tables,
    transvection,
    xor_lookup,
)
from .invariant import j_hat_signatures
from .quotient import (
    QuotientFunction,
    QuotientSpace,
    action_matrix,
    apply_key,
    lower_window,
    multiply_affine_form,
    q_apply_affine,
    quotient_space,
)

DEFAULT_SPACE_GUARD = 1 << 26
DEFAULT_INNER_GUARD = 1 << 24


def classification_digest(space: QuotientSpace, reps: Sequence[int]) -> str:
    h = hashlib.sha256()
    h.update(f"{space.s},{space.t},{space.m}|".encode())
    h.update(",".join(format(k, "x") for k in reps).encode())
    return h.hexdigest()[:16]


@dataclass
class Classification:
    """Ordered orbit representatives of one window, with optional extras.

    Class indices are pinned by the representative order; the digest commits
    to that numbering and travels with every invariant signature derived
    from it.  ``walks`` are the window's BFS walks, one slice walked by
    ``walk_generators()``: a key walks back along them to its class
    representative (``walk_back``), and walk i is class i.
    """

    space: QuotientSpace
    reps: list[int]
    orbit_sizes: Optional[list[int]] = None
    stabilizer_gens: Optional[list[list[AffineTransformation]]] = None
    provenance: str = ""
    generators: Optional[list[AffineTransformation]] = None
    digest: str = field(default="")
    walks: Optional[Walks] = None

    def __post_init__(self):
        if not self.digest:
            self.digest = classification_digest(self.space, self.reps)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    def rep_function(self, idx: int) -> QuotientFunction:
        return self.space.function(self.reps[idx])

    def rep_functions(self) -> list[QuotientFunction]:
        return [self.space.function(k) for k in self.reps]

    def walk_generators(self) -> list[AffineTransformation]:
        """The maps the BFS walks by: the file's, or AGL's default set."""
        return self.generators or agl_generators(self.space.m)

    def ensure_schreier(self) -> None:
        """Rebuild the walks and their Schreier vector by BFS if they are
        missing."""
        if self.walks is not None:
            return
        rebuilt = orbit_enumerate(*self.space.params, self.walk_generators(), stabilizers=False)
        if rebuilt.reps != self.reps:
            raise ValueError(
                "stored representatives disagree with the BFS rebuild; refusing "
                "to attach a Schreier vector with a different numbering"
            )
        if self.orbit_sizes not in (None, rebuilt.orbit_sizes):
            raise ValueError("stored orbit sizes disagree with the BFS rebuild")
        self.walks = rebuilt.walks
        self.orbit_sizes = rebuilt.orbit_sizes

    def walk_back(self, keys, carry=None) -> tuple[np.ndarray, Optional[np.ndarray], int]:
        """``Walks.walk_back`` of window keys: their class numbers (int64)
        in the keys' shape, the carried keys (or None) and the longest walk
        back.  A classification without walks attaches them by BFS on first
        use, which raises SpaceTooLargeError past the guard.
        """
        self.ensure_schreier()
        return self.walks.walk_back(keys, carry=carry)

    def classes_of(self, keys) -> np.ndarray:
        """Class numbers (int64) of an array of window keys, in its shape."""
        return self.walk_back(keys)[0]


# --- walks and their Schreier vectors ----------------------------------------


_SCAN_BLOCK = 1 << 12
_WALK_BLOCK = 1 << 14
_UNSEEN = -1  # Schreier vector entry of a point no walk has reached
_START = -2  # entry of a walk's start; every other point holds a generator index


def _schreier_vector(size: int, n_gens: int) -> np.ndarray:
    """A Schreier vector with every point unseen, one byte a point below 128
    generators."""
    return np.full(size, _UNSEEN, dtype=np.int8 if n_gens < 128 else np.int16)


def _unseen(vector: np.ndarray) -> Iterable[int]:
    """Yield the smallest unseen point, again after each orbit.

    The caller walks the orbit of each yielded point before asking for the
    next one, so every point below the last one yielded is seen and the scan
    resumes there, one block at a time.
    """
    start = 0
    while start < len(vector):
        hits = np.flatnonzero(vector[start : start + _SCAN_BLOCK] == _UNSEEN)
        if hits.size:
            start += int(hits[0])
            yield start
        else:
            start += _SCAN_BLOCK


def _key_bytes(keys: np.ndarray, groups: int) -> list[np.ndarray]:
    """Bytes 0 .. groups-1 of integer keys, as views of the keys' memory.

    The keys keep their own width: 4 bytes for a walk level, 8 for the
    labeler's window keys.  A walk level hands the same views to every map,
    with no shifted or masked copy of the frontier.
    """
    width = keys.dtype.itemsize
    raw = keys.astype(f"<i{width}", copy=False).view(np.uint8).reshape(-1, width)
    return [raw[:, c] for c in range(groups)]


def _walk_orbit(tables: Sequence[np.ndarray], vector: np.ndarray, start: int) -> int:
    """Record the orbit of start in its Schreier vector by a frontier BFS;
    return its size.

    Each of ``tables`` is the ``subset_tables`` of one map, key byte c
    indexing group c; all maps read the frontier's key bytes in place
    (``_key_bytes``).  The orbit must be unseen when the walk begins.  The
    start gets _START and every other point the index of the map that first
    reached it.  Each map is a bijection and its fresh images are recorded
    before the next map runs, so the frontier never holds a key twice.  A
    map reads the frontier in blocks of _WALK_BLOCK keys, which bounds its
    temporaries; its images of two blocks are disjoint, so the blocks change
    nothing recorded.  A level holds its points as int32, narrowed as they
    join it, which the guards allow: no slice has more than 2^26 points.
    The tables stay int64, so the images index the vector at full width.
    """
    vector[start] = _START
    frontier = np.array([start], dtype=np.int32)
    size = 1
    groups = len(tables[0]) if tables else 0
    while frontier.size:
        blocks = [
            _key_bytes(frontier[i : i + _WALK_BLOCK], groups)
            for i in range(0, frontier.size, _WALK_BLOCK)
        ]
        parts = []
        for k, tab in enumerate(tables):
            for index in blocks:
                img = xor_lookup(tab, index)
                fresh = img.compress(vector.take(img) == _UNSEEN)
                if fresh.size:
                    vector[fresh] = k
                    parts.append(fresh.astype(np.int32))
                    size += fresh.size
        # the level is freed before the next one is joined
        del frontier, blocks
        frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
    return size


def _side_by_side(columns: Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """``subset_tables`` (groups, 256, maps) of linear maps on dim-bit keys,
    each given by its images of the basis keys, fewer rows reading as zero."""
    rows = np.zeros((dim, len(columns)), dtype=np.int64)
    for k, images in enumerate(columns):
        rows[: len(images), k] = images
    return subset_tables(rows, 8)


def _column_images(tables: np.ndarray, keys: np.ndarray, columns) -> np.ndarray:
    """Image of each key under the map in its column of ``_side_by_side``
    tables: the column joins the key byte in one flat index per group."""
    width = tables.shape[2]
    flat = tables.reshape(len(tables), -1)
    return xor_lookup(
        flat, (((keys >> (8 * c)) & 255) * width + columns for c in range(len(flat)))
    )


def _inverse_tables(space: QuotientSpace, gens: Sequence[AffineTransformation]) -> np.ndarray:
    """``_side_by_side`` tables of the inverses of gens on the keys of space,
    the columns a walk back along their Schreier vector reads."""
    return _side_by_side([action_matrix(space, invert(g)) for g in gens], space.dim)


@dataclass
class Walks:
    """Orbit walks over slices of points, recorded in one Schreier vector.

    Point p of slice i sits at vector[offsets[i] + p].  Its entry is _START
    at the start of a walk; otherwise it is the index k of the slice's map
    that first reached it, and column columns[i] + k of the ``_side_by_side``
    tables ``back`` holds that map's inverse.  ``offsets`` and ``columns``
    end with the totals of points and maps.  ``starts`` holds the vector
    positions of the walks' starts, which the walk order keeps increasing,
    and ``sizes`` the walks' sizes.
    """

    vector: np.ndarray
    offsets: np.ndarray
    columns: np.ndarray
    back: np.ndarray
    starts: np.ndarray
    sizes: list[int]

    def walk_back(self, points, slices=0, carry=None):
        """Walk points back to the starts of their walks, carrying keys along.

        ``slices`` names the slice of each point, per point or shared.  Each
        step moves every point not yet at a start by the inverse of the map
        that reached it.  ``carry`` is (tables, keys), one carried key a
        point: each step applies the same column of its tables to the
        carried keys.  Returns the walk index of each point (int64, in the
        points' shape), the carried keys (or None) and the number of steps,
        the longest walk back among the points.  A walk back that ends off
        the walks' starts raises RuntimeError.
        """
        points = np.array(points, dtype=np.int64)
        shape = points.shape
        points = points.ravel()
        base = np.broadcast_to(self.offsets[slices], points.shape)
        column = np.broadcast_to(self.columns[slices], points.shape)
        carried = None if carry is None else carry[1].copy()
        todo = np.arange(points.size)
        for steps in itertools.count():
            k = self.vector[base[todo] + points[todo]]
            moving = k >= 0
            todo, k = todo[moving], k[moving]
            if not todo.size:
                break
            col = column[todo] + k
            points[todo] = _column_images(self.back, points[todo], col)
            if carry is not None:
                carried[todo] = _column_images(carry[0], carried[todo], col)
        ends = base + points
        walks = np.searchsorted(self.starts, ends)
        stray = np.flatnonzero(self.starts[np.minimum(walks, len(self.starts) - 1)] != ends)
        if stray.size:
            raise RuntimeError(
                f"key walks back to {int(points[stray[0]]):#x}, not a representative"
            )
        return walks.reshape(shape), carried, steps


def _walk_slices(slices: Sequence[tuple[int, list[np.ndarray], int]], back: np.ndarray) -> Walks:
    """Walk every orbit of each slice's maps, slice by slice and smallest
    unseen point first (``_walk_orbit``).

    Each slice is (dim, tables, weight): its 2^dim points, the
    ``subset_tables`` of its maps, and the weight by which a walk's size is
    the number of points it visits.  ``back`` holds the ``_side_by_side``
    inverses of the maps of all slices, in slice order.
    """
    offsets = np.cumsum([0] + [1 << dim for dim, _, _ in slices])
    columns = np.cumsum([0] + [len(tables) for _, tables, _ in slices])
    vector = _schreier_vector(int(offsets[-1]), max(len(tables) for _, tables, _ in slices))
    starts, sizes = [], []
    for lo, hi, (_, tables, weight) in zip(offsets.tolist(), offsets[1:].tolist(), slices):
        points = vector[lo:hi]
        for start in _unseen(points):
            sizes.append(_walk_orbit(tables, points, start) * weight)
            starts.append(lo + start)
    return Walks(vector, offsets, columns, back, np.array(starts, dtype=np.int64), sizes)


def _homogeneous(g: AffineTransformation) -> list[int]:
    """g as the linear map (x, 1) -> (g(x), 1) of F_2^(m+1): its images of
    the basis keys, bit m being the homogeneous coordinate."""
    images = base_images(g)
    return [b ^ images[0] for b in images[1:]] + [images[0] | 1 << g.m]


# --- exact orbit enumeration ------------------------------------------------


def orbit_enumerate(
    s: int,
    t: int,
    m: int,
    generators: Optional[Sequence[AffineTransformation]] = None,
    *,
    stabilizers: bool = True,
) -> Classification:
    """Exact classification of a window by BFS over all of its elements.

    Representatives are the smallest key of each orbit, listed in increasing
    order, so the numbering is deterministic.  Returns them with the BFS
    walks, one slice walked by the generators, and, with ``stabilizers``,
    irredundant generators of the stabilizer of every representative,
    sampled by walks back along them (``_stabilizer_elements``) with
    the class index as seed.
    """
    space = quotient_space(s, t, m)
    if 1 << space.dim > DEFAULT_SPACE_GUARD:
        raise SpaceTooLargeError(
            f"window has 2^{space.dim} elements, guard allows {DEFAULT_SPACE_GUARD}"
        )
    gens = list(generators) if generators is not None else agl_generators(m)
    tables = [
        subset_tables(np.array(action_matrix(space, g), dtype=np.int64), 8) for g in gens
    ]
    walks = _walk_slices([(space.dim, tables, 1)], _inverse_tables(space, gens))
    cls = Classification(
        space=space,
        reps=walks.starts.tolist(),
        orbit_sizes=walks.sizes,
        provenance=f"oracle-bfs gens={len(gens)}",
        generators=gens,
        walks=walks,
    )
    if stabilizers:
        carry = _side_by_side([_homogeneous(g) for g in gens], m + 1)
        cls.stabilizer_gens = [
            _irredundant(
                m, agl_order(m) // size, _stabilizer_elements(cls, carry, idx, Random(idx))
            )
            for idx, size in enumerate(walks.sizes)
        ]
    return cls


_SAMPLES = 4  # random keys a walk back transports at once


def _irredundant(
    m: int, order: int, elements: Iterable[Sequence[int]]
) -> list[AffineTransformation]:
    """The elements, given by base images, that lie outside the group of
    those kept before them, taken until they generate ``order`` elements."""
    chain = _StabilizerChain(m, order)
    kept = []
    elements = iter(elements)
    while chain.order() < order:
        images = next(elements)
        if chain.add_images(images):
            kept.append(from_base_images(m, images))
    return kept


def _stabilizer_elements(cls, carry, idx, rng) -> Iterable[list[int]]:
    """Base images of uniform elements of the stabilizer of representative
    idx of cls, without end.

    For a uniform r, the key rep o r walks back to rep by a transporter T,
    rep o r o T = rep, so r o T is a uniform element of Stab(rep), and so is
    its inverse T^-1 o r^-1.  The walk carries the base images of r^-1 along
    in homogeneous coordinates, through the ``_homogeneous`` tables
    ``carry`` of the walk generators, and each step back applies the
    generator whose inverse it takes, so they come out as the base images
    of T^-1 o r^-1.  A walk back that ends at another representative
    raises: the walk generators do not generate AGL(m,2).
    """
    m = cls.space.m
    rep_fn = cls.rep_function(idx)
    while True:
        rs = [random_affine(m, rng) for _ in range(_SAMPLES)]
        keys = np.array([q_apply_affine(rep_fn, r).key for r in rs], dtype=np.int64)
        starts = np.array(
            [b | 1 << m for r in rs for b in base_images(invert(r))], dtype=np.int64
        )
        classes, images, _ = cls.walk_back(np.repeat(keys, m + 1), carry=(carry, starts))
        stray = classes[classes != idx]
        if stray.size:
            raise RuntimeError(
                f"a key in the orbit of {rep_fn.key:#x} walks back to "
                f"{cls.reps[int(stray[0])]:#x}: the walk generators do not "
                f"generate AGL({m},2)"
            )
        yield from (images & ((1 << m) - 1)).reshape(-1, m + 1).tolist()


# --- cover sets --------------------------------------------------------------


@dataclass
class CoverSet:
    """Entries (g class index, h key) whose recompositions meet every orbit.

    A reduced cover keeps the walks that found its entries, one slice V/T_i
    per lower class i, walk j being entry j and its size the entry's
    P-orbit size, and the ``_side_by_side`` tables ``reduce``, whose column
    i sends an h key to its point of slice i.
    """

    s: int
    t: int
    m: int
    size: int
    entries: Iterable[tuple[int, int]]
    walks: Optional[Walks] = None
    reduce: Optional[np.ndarray] = None

    def assembled(self, sub: Classification) -> Iterable[int]:
        """Window keys of the entries: x_m * g + h is the key join of
        ``compose_decomposition``, h | g << dim(h)."""
        shift = quotient_space(self.s, self.t, self.m - 1).dim
        for g_idx, h_key in self.entries:
            yield h_key | sub.reps[g_idx] << shift


def _check_sub(s: int, t: int, m: int, sub: Classification) -> None:
    expect = lower_window(s, t, m)
    if tuple(sub.space.params) != expect:
        raise ValueError(
            f"sub-classification covers {sub.space.params}, expected {expect}"
        )


class _ProductEntries:
    """Re-iterable lazy product of class indices with all h keys."""

    def __init__(self, n_classes: int, n_h: int):
        self.n_classes = n_classes
        self.n_h = n_h

    def __iter__(self):
        for g_idx in range(self.n_classes):
            for h_key in range(self.n_h):
                yield (g_idx, h_key)


def initial_cover_set(s: int, t: int, m: int, sub: Classification) -> CoverSet:
    """Product cover set: every class of the lower window against all h."""
    _check_sub(s, t, m, sub)
    h_space = quotient_space(s, t, m - 1)
    size = sub.n_classes * (1 << h_space.dim)
    return CoverSet(s, t, m, size, _ProductEntries(sub.n_classes, 1 << h_space.dim))


def reduce_cover_set(s: int, t: int, m: int, sub: Classification) -> CoverSet:
    """Cover set reduced by the stabilizer action on the h part.

    For each g, the h window V is partitioned under the group generated by
    h -> h o u for u in the stabilizer of g together with the translations
    h -> h + alpha*g over affine forms alpha; one minimal representative
    per orbit survives, so the entries are the P-orbits of the window.  The
    translations span a subspace T that every u maps into itself, so the
    orbits are unions of T-cosets and the walk runs on V/T: each coset is
    named by its smallest key, which has no pivot bit of T set, and numbered
    densely by deleting those bits.  The cover keeps the walks, one slice
    per class (``_walk_slices``).

    Stabilizer lists may come from a file, so each list is checked before
    its walk goes by it (``_slice_generators``).
    """
    _check_sub(s, t, m, sub)
    if sub.stabilizer_gens is None:
        raise ValueError("sub-classification carries no stabilizer generators")
    h_space = quotient_space(s, t, m - 1)
    if 1 << h_space.dim > DEFAULT_INNER_GUARD:
        raise SpaceTooLargeError(
            f"h window has 2^{h_space.dim} elements, guard allows {DEFAULT_INNER_GUARD}"
        )
    if sub.orbit_sizes is None:
        sub.ensure_schreier()

    slices, frees, backs, reduces = [], [], [], []
    for g_idx in range(sub.n_classes):
        g_fn = sub.rep_function(g_idx)
        basis = gf2_echelon(
            multiply_affine_form(1 << alpha_mask, g_fn, s, t).key
            for alpha_mask in [0] + [1 << i for i in range(m - 1)]
        )
        pivots = 0
        for b in basis:
            pivots |= 1 << (b.bit_length() - 1)
        free = [q for q in range(h_space.dim) if not (pivots >> q) & 1]

        def compress(key: int) -> int:
            return sum(((key >> q) & 1) << j for j, q in enumerate(free))

        def on_cosets(images: list[int]) -> list[int]:
            return [compress(gf2_reduce(images[q], basis)) for q in free]

        forward = []
        for u, images in _slice_generators(sub, g_idx, h_space, basis):
            forward.append(subset_tables(np.array(on_cosets(images), dtype=np.int64), 8))
            backs.append(on_cosets(action_matrix(h_space, invert(u))))
        slices.append((len(free), forward, sub.orbit_sizes[g_idx] << len(basis)))
        frees.append(free)
        reduces.append([compress(gf2_reduce(1 << q, basis)) for q in range(h_space.dim)])

    walks = _walk_slices(slices, _side_by_side(backs, max(map(len, frees))))
    g_of = np.searchsorted(walks.offsets, walks.starts, side="right") - 1
    entries = [
        (g_idx, sum(((p >> j) & 1) << q for j, q in enumerate(frees[g_idx])))
        for g_idx, p in zip(g_of.tolist(), (walks.starts - walks.offsets[g_of]).tolist())
    ]
    return CoverSet(s, t, m, len(entries), entries, walks, _side_by_side(reduces, h_space.dim))


def _slice_generators(
    sub: Classification, g_idx: int, h_space: QuotientSpace, basis: Sequence[int]
) -> list[tuple[AffineTransformation, list[int]]]:
    """The maps the V/T walk of class g_idx goes by: the file's stabilizer
    generators of the class, once checked, each with its action matrix on
    the h window.

    Each generator must fix the representative and map T, spanned by the
    echelon ``basis``, into itself, and together they must generate all of
    Stab(g), the |AGL(m-1,2)| / |orbit(g)| elements, which one stabilizer
    chain counts: a walk under part of it would split a P-orbit.
    """
    stab = sub.stabilizer_gens[g_idx]
    g_key = sub.reps[g_idx]
    checked = []
    for u in stab:
        images = action_matrix(h_space, u)
        if any(gf2_reduce(apply_key(images, b), basis) for b in basis):
            raise ValueError(
                f"stabilizer generator of class {g_idx} does not preserve "
                "the span of the alpha*g translations"
            )
        if apply_key(action_matrix(sub.space, u), g_key) != g_key:
            raise ValueError(
                f"stabilizer generator of class {g_idx} does not fix its "
                "representative"
            )
        checked.append((u, images))
    m = sub.space.m
    order = agl_order(m) // sub.orbit_sizes[g_idx]
    chain = _StabilizerChain(m, order)
    for u in stab:
        chain.add(u)
    if chain.order() != order:
        raise ValueError(
            f"stabilizer generators of class {g_idx} generate {chain.order()} "
            f"of the {order} elements of its stabilizer"
        )
    return checked


# --- P-orbit labels and the pipeline -------------------------------------------


def class_of(qf: QuotientFunction, classification: Classification) -> int:
    """Orbit index of qf in the given classification (``classes_of``)."""
    if qf.space.params != classification.space.params:
        raise ValueError("space mismatch")
    return int(classification.classes_of([qf.key])[0])


def _direction_maps(m: int) -> list[AffineTransformation]:
    """One linear involution A_v with A_v(e_m) = v for each v = 1 .. 2^m - 1.

    A_v P is then the coset of the maps whose linear part sends e_m to v, P
    being the maps whose linear part fixes e_m.  A_(e_m) is the identity;
    every other A_v is the transvection x -> x + theta(x)(e_m + v), where
    theta(e_m) = 1 and theta(e_m + v) = 0.
    """
    top = 1 << (m - 1)
    maps = []
    for v in range(1, 1 << m):
        if v == top:
            maps.append(identity(m))
        else:
            theta = top if v & top else top | (v & -v)
            maps.append(transvection(top ^ v, theta, m))
    return maps


@dataclass
class _Labeler:
    """P-orbit labels of the keys f o A_v of window keys f, all v at once.

    f = x_m * g + h moves within its P-orbit to x_m * rep_i + h' as g walks
    back to its class i in the lower window (``Classification.walk_back``)
    and h goes through the same inverse generators on the h window.  h'
    then goes to its point of V/T_i, and the walk back from there in slice
    i of the cover's walks ends at the start of the entry whose P-orbit
    holds f.  The g-half of f o A_v is (D_v f) o A_v on a complement of v,
    affinely equivalent to restrict(D_v f, v), so class i is the class map
    of f at v: the lower walk reads off the paper's lift by derivation.
    """

    h_dim: int
    directions: np.ndarray  # _side_by_side tables of the maps A_v
    sub: Classification  # the lower window
    h_back: np.ndarray  # its inverse walk generators on the h window
    reduce: np.ndarray  # the cover's tables from h keys to V/T points
    walks: Walks  # the cover's V/T walks

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Entry labels and lower classes, row i for keys[i] and column
        v - 1 for direction v, and the longest walks back, on the lower
        window and on V/T."""
        moved = xor_lookup(self.directions, _key_bytes(keys, len(self.directions))).ravel()
        g, h = moved >> self.h_dim, moved & ((1 << self.h_dim) - 1)
        cls, h, lower = self.sub.walk_back(g, carry=(self.h_back, h))
        entry, _, cover = self.walks.walk_back(_column_images(self.reduce, h, cls), cls)
        shape = len(keys), self.directions.shape[2]
        return entry.reshape(shape), cls.reshape(shape), (lower, cover)


def _labeler(space: QuotientSpace, sub: Classification, cover: CoverSet) -> _Labeler:
    h_space = quotient_space(space.s, space.t, space.m - 1)
    return _Labeler(
        h_dim=h_space.dim,
        directions=_side_by_side(
            [action_matrix(space, a) for a in _direction_maps(space.m)], space.dim
        ),
        sub=sub,
        h_back=_inverse_tables(h_space, sub.walk_generators()),
        reduce=cover.reduce,
        walks=cover.walks,
    )


@dataclass
class PipelineReport:
    space: tuple[int, int, int]
    initial_cover_size: int
    reduced_cover_size: int
    n_buckets: int
    n_classes: int
    walk_gens: int  # V/T walk generators of all slices, the lower file's stabilizer lists
    depth_lower: int  # longest walk back in the label pass, lower window
    depth_cover: int  # and on V/T


def classify_pipeline(
    s: int, t: int, m: int, sub: Classification, *, jobs: int = 1
) -> tuple[Classification, PipelineReport]:
    """Cover set and P-orbit labels: the full classifier.

    The class of a cover entry is the set of entries that label it composed
    with every direction map (``_Labeler``), one pass over all entries and
    directions, spread over ``jobs`` processes in chunks of entries.  The
    pass must map every entry to itself at direction e_m, and give all
    entries of a class the same label set.  A class is represented by its
    smallest key; its orbit size is the sum of its entries' P-orbit sizes.
    The same pass walks each entry's class map (the lower classes of
    ``_Labeler``, with class 0 at direction 0, key 0 being its own orbit),
    whose J-hat signatures bucket the entries for the report; no class may
    span two buckets.  The report counts the V/T walks' generators and the
    longest walks back of the label pass, which fewer generators make
    deeper.
    """
    _check_sub(s, t, m, sub)

    space = quotient_space(s, t, m)
    initial_size = initial_cover_set(s, t, m, sub).size
    sub.ensure_schreier()
    cover = reduce_cover_set(s, t, m, sub)
    keys = np.fromiter(cover.assembled(sub), dtype=np.int64, count=cover.size)
    label = _labeler(space, sub, cover)
    if jobs > 1 and len(keys) > 1:
        from .parallel import resolve_buckets_parallel

        parts = resolve_buckets_parallel(label, np.array_split(keys, jobs), jobs)
    else:
        parts = [label(keys)]
    labels = np.concatenate([part for part, _, _ in parts])
    maps = np.concatenate([lower for _, lower, _ in parts])
    signatures = j_hat_signatures(np.pad(maps, ((0, 0), (1, 0))), sub.digest)
    depth_lower, depth_cover = np.max([depths for _, _, depths in parts], axis=0).tolist()

    if not np.array_equal(labels[:, (1 << (m - 1)) - 1], np.arange(len(keys))):
        raise RuntimeError("direction e_m moved a cover entry off its own P-orbit")
    # each entry's label set as one row: sorted, with repeats moved ahead as -1
    sets = np.sort(labels, axis=1)
    sets[:, 1:][sets[:, 1:] == sets[:, :-1]] = -1
    sets.sort(axis=1)
    same = np.unique(sets, axis=0, return_inverse=True)[1].ravel()
    if not (same[labels] == same[:, None]).all():
        raise RuntimeError("entries of one class give different label sets")

    rep_of = keys[labels].min(axis=1)
    rep_keys, class_idx = np.unique(rep_of, return_inverse=True)
    sizes = [0] * len(rep_keys)
    bucket: dict = {}
    for c, size, sig in zip(class_idx.tolist(), cover.walks.sizes, signatures):
        sizes[c] += size
        if bucket.setdefault(c, sig) != sig:
            raise RuntimeError(f"class {c} spans two invariant buckets")

    cls = Classification(
        space=space,
        reps=rep_keys.tolist(),
        orbit_sizes=sizes,
        provenance=f"pipeline-labels sub={sub.digest}",
    )
    report = PipelineReport(
        space=space.params,
        initial_cover_size=initial_size,
        reduced_cover_size=cover.size,
        n_buckets=len(set(signatures)),
        n_classes=cls.n_classes,
        walk_gens=int(cover.walks.columns[-1]),
        depth_lower=depth_lower,
        depth_cover=depth_cover,
    )
    return cls, report


# --- classification files -----------------------------------------------------


def _encode_affine(g: AffineTransformation) -> str:
    return ",".join(format(r, "x") for r in g.rows) + ";" + format(g.trans, "x")


def _decode_affine(text: str, m: int) -> AffineTransformation:
    rows_text, _, trans_text = text.partition(";")
    rows = tuple(int(p, 16) for p in rows_text.split(","))
    return AffineTransformation(m, rows, int(trans_text or "0", 16))


def save_classification(cls: Classification, path: str) -> None:
    s, t, m = cls.space.params
    lines = [
        "#%rmcover classification v1",
        f"#%space {s} {t} {m}",
        f"#%provenance {cls.provenance}",
        f"#%digest {cls.digest}",
    ]
    for g in cls.generators or []:
        lines.append("G " + _encode_affine(g))
    for i, key in enumerate(cls.reps):
        size = cls.orbit_sizes[i] if cls.orbit_sizes is not None else "-"
        anf = bf.anf_to_string(bf.AnfPolynomial(m, cls.space.anf_from_key(key)))
        lines.append(f"R {i} {size} {anf}")
    if cls.stabilizer_gens is not None:
        for i, gens in enumerate(cls.stabilizer_gens):
            if not gens:
                lines.append(f"S {i} -")  # trivial stabilizer, not "unknown"
            for g in gens:
                lines.append(f"S {i} " + _encode_affine(g))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_classification(path: str) -> Classification:
    space = None
    declared_digest = None
    provenance = None
    generators: list[AffineTransformation] = []
    reps: list[int] = []
    sizes: list = []
    stab: dict[int, list[AffineTransformation]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#%space"):
                    if space is not None:
                        raise ValueError("second space header")
                    s, t, m = (int(p) for p in line.split()[1:])
                    space = quotient_space(s, t, m)
                elif line.startswith("#%provenance"):
                    if provenance is not None:
                        raise ValueError("second provenance header")
                    provenance = line.split(None, 1)[1] if " " in line else ""
                elif line.startswith("#%digest"):
                    if declared_digest is not None:
                        raise ValueError("second digest header")
                    declared_digest = line.split()[1]
                elif line.startswith("#"):
                    continue
                elif space is None:
                    raise ValueError(f"{line.split()[0]!r} record before the space header")
                elif line.startswith("G "):
                    generators.append(_decode_affine(line[2:], m))
                elif line.startswith("R "):
                    _, idx, size, anf = line.split(None, 3)
                    if int(idx) != len(reps):
                        raise ValueError("class indices out of order")
                    coeffs = bf.anf_from_string(anf, m).coeffs
                    if coeffs & ~space.support:
                        raise ValueError("monomials outside the space window")
                    reps.append(space.key_from_anf(coeffs))
                    if size != "-" and (int(size) < 1 or agl_order(m) % int(size)):
                        raise ValueError(f"orbit size {size} does not divide |AGL({m},2)|")
                    sizes.append(None if size == "-" else int(size))
                elif line.startswith("S "):
                    _, idx_text, enc = line.split(None, 2)
                    idx = int(idx_text)
                    if not 0 <= idx < len(reps):
                        raise ValueError(
                            f"stabilizer for class {idx}, not among the "
                            f"{len(reps)} classes read before it"
                        )
                    bucket = stab.setdefault(idx, [])
                    if enc != "-":
                        bucket.append(_decode_affine(enc, m))
                else:
                    raise ValueError(f"unrecognized record {line.split()[0]!r}")
            except (ValueError, IndexError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if space is None:
        raise ValueError(f"{path}: missing space header")
    digest = classification_digest(space, reps)
    if declared_digest and declared_digest != digest:
        raise ValueError(
            f"{path}: digest mismatch (file says {declared_digest}, "
            f"content hashes to {digest})"
        )
    orbit_sizes = None if None in sizes else sizes
    if orbit_sizes is not None and sum(orbit_sizes) != 1 << space.dim:
        raise ValueError(
            f"{path}: orbit sizes sum to {sum(orbit_sizes)}, not 2^{space.dim}"
        )
    missing = [i for i in range(len(reps)) if i not in stab]
    if stab and missing:
        raise ValueError(f"{path}: S lines for some classes but not for class {missing[0]}")
    return Classification(
        space=space,
        reps=reps,
        orbit_sizes=orbit_sizes,
        stabilizer_gens=[stab[i] for i in range(len(reps))] if stab else None,
        provenance=provenance or "",
        generators=generators or None,
        digest=digest,
    )
