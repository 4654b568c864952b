"""Tri-state affine-equivalence testing in windows with s = t-1 (or s = t).

Two functions in the same window are equivalent when one is the affine
composition of the other modulo the window floor.  The test filters on the
Walsh distribution invariant, then searches depth-first for a linear
candidate compatible with the Walsh transforms of the derivative class maps,
and finally completes each candidate with an affine part through the
derivative-subspace membership check.  Each search node computes, once for
all its children, the two tables their numpy masks of admissible images are
read from, and each node one level above the last tests the complete
candidates of all its children at once for the degree-t part of the check
before any of them reaches the full check.  Every returned witness is
re-verified by direct recomposition before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Optional, Sequence

import numpy as np

from .boolfun import wht
from .common import DEFAULT_ITER_BUDGET
from .group import (
    AffineTransformation,
    SingularMatrixError,
    compose,
    invert_rows,
    matvec,
    random_affine,
)
from .invariant import class_maps, j_hat_signatures
from .quotient import QuotientFunction, delta_membership, q_apply_affine

EQUIV = "Equiv"
NOT_EQUIV = "NotEquiv"
UNDEFINED = "Undefined"


@dataclass(frozen=True)
class EquivalenceOutcome:
    verdict: str
    witness: Optional[AffineTransformation]
    candidates_tested: int
    budget_used: int


def _check_window(f: QuotientFunction) -> None:
    if f.s not in (f.t - 1, f.t):
        raise ValueError("equivalence search needs a window with s in {t-1, t}")


def candidate_checking(
    a_rows: Sequence[int], f: QuotientFunction, fp: QuotientFunction
) -> Optional[int]:
    """Affine part a with fp = f o (A, a) in the window, or None.

    A candidate linear part A works exactly when fp o A^-1 + f lies in the
    span of the derivatives of f; the solving direction is returned.  In an
    s = t window translations act trivially, so the check degenerates to
    exact equality of fp o A^-1 and f.
    """
    if f.space.params != fp.space.params:
        raise ValueError("space mismatch")
    _check_window(f)
    m = f.m
    ainv = invert_rows(a_rows, m)  # raises SingularMatrixError on bad candidates
    g = q_apply_affine(fp, AffineTransformation(m, ainv, 0)) ^ f
    if f.s == f.t:
        return 0 if g.key == 0 else None
    a = delta_membership(f, g)
    if a is None:
        return None
    if q_apply_affine(f, AffineTransformation(m, tuple(a_rows), a)) != fp:
        return None
    return a


def admissible_mask(
    images: Sequence[int],
    i: int,
    fh_f: Sequence[int],
    fh_fp: Sequence[int],
) -> np.ndarray:
    """The images y to which basis vector b_i can extend the partial candidate.

    ``images`` holds the candidate images of the span of b_1..b_{i-1},
    indexed by subset integer.  Entry y of the returned mask over all points
    is True when mapping b_i to y keeps the Walsh values matched on the
    enlarged span (fh_fp[images[z] ^ y] == fh_f[z | half] for every z below
    half = 2^(i-1)) and keeps the map injective (y outside the image span).
    """
    half = 1 << (i - 1)
    span = np.asarray(images[:half])
    fh_fp = np.asarray(fh_fp)
    fh_f = np.asarray(fh_f)
    points = np.arange(len(fh_fp))
    ok = (fh_fp[span[:, None] ^ points] == fh_f[half : 2 * half, None]).all(0)
    ok[span] = False
    return ok


def sibling_masks(
    images: np.ndarray,
    i: int,
    fh_f: np.ndarray,
    fh_fp: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """The admissible-image masks of the children of a level-i node.

    Row k equals ``admissible_mask(images', i + 1, fh_f, fh_fp)`` where
    images' extends ``images`` by b_i -> ys[k].  With h = 2^(i-1) and
    span = images[:h], a child's Walsh conditions on z < h read
    fh_fp[span[z] ^ y'] == fh_f[2h + z], the same for every sibling, and
    those on z >= h read fh_fp[span[z - h] ^ y ^ y'] == fh_f[3h + z - h],
    one table read at y ^ y'.  Both come from one gather over the span.
    """
    half = 1 << (i - 1)
    span = images[:half]
    points = np.arange(len(fh_fp))
    values = fh_fp[span[:, None] ^ points]
    shared = (values == fh_f[2 * half : 3 * half, None]).all(0)
    shifted = (values == fh_f[3 * half : 4 * half, None]).all(0)
    ys = np.asarray(ys)[:, None]
    ok = shared & shifted[points ^ ys]
    ok[:, span] = False
    ok[np.arange(len(ys))[:, None], span ^ ys] = False
    return ok


@lru_cache(maxsize=None)
def _leaf_tables(m: int, t: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Parity table, degree-t masks and Moebius-top matrix of the leaf filter.

    ``parity[y, x]`` is parity(y & x), so bit j of the point map of a matrix
    with rows r_j is ``parity[r_j]``.  ``top[x, k]`` is 1 when point x lies
    under ``masks[k]``, so the degree-t ANF coefficients of a 0/1 truth
    table v are ``v @ top`` mod 2 (exact in float32 for sums below 2^24).
    The arrays are shared by every caller and read-only.
    """
    points = np.arange(1 << m)
    parity = (np.bitwise_count(points[:, None] & points) & 1).astype(np.intp)
    masks = tuple(mask for mask in range(1 << m) if mask.bit_count() == t)
    under = (points[:, None] & np.array(masks, dtype=np.intp)) == points[:, None]
    top = under.astype(np.float32)
    parity.setflags(write=False)
    top.setflags(write=False)
    return parity, masks, top


def top_degree_filter(f: QuotientFunction, fp: QuotientFunction):
    """The leaf test of the search, batched over complete candidates.

    Returns ``test(head, ys)``: a bool per y in ``ys`` telling whether f o A
    and fp have the same ANF coefficients of degree t, where A has the m-1
    rows ``head`` followed by y; ``head`` is shared by every y, or has one
    row of m-1 entries per y.  For invertible A this holds exactly when
    deg(fp o A^-1 + f) <= t-1, since composing with A or A^-1 maps the
    degree-t part of a function to the degree-t part of the image and keeps
    lower terms lower; ``candidate_checking`` returns None whenever the test
    fails.
    """
    if f.space.params != fp.space.params:
        raise ValueError("space mismatch")
    m, t = f.m, f.t
    n = 1 << m
    parity, masks, top = _leaf_tables(m, t)
    tt = f.lift().tt
    f_tt = np.array([(tt >> x) & 1 for x in range(n)], dtype=np.float32)
    anf = fp.anf
    fp_top = np.array([(anf >> mask) & 1 for mask in masks], dtype=np.float32)
    weights = 1 << np.arange(m - 1)

    def test(head, ys: Sequence[int]) -> np.ndarray:
        # Point maps of the candidates, one row per y: bit j of pm[k, x] is
        # the parity of row j of A_k and x.
        last = parity[np.asarray(ys, dtype=np.intp)] << (m - 1)
        pm = (weights @ parity[np.asarray(head, dtype=np.intp)]) ^ last
        coeffs = np.fmod(f_tt[pm] @ top, 2)
        return (coeffs == fp_top).all(1)

    return test


def equivalent(
    f: QuotientFunction,
    fp: QuotientFunction,
    sub,
    *,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    rng: Optional[Random] = None,
) -> EquivalenceOutcome:
    """Decide Equiv / NotEquiv / Undefined for two window elements.

    Distinct Walsh distribution invariants settle NotEquiv outright.
    Otherwise f is pre-composed with a random affine map (which only
    re-randomizes the deterministic search order) and candidates are built
    basis vector by basis vector.  Each node tries its admissible images in a
    per-level shuffled order; the root takes them from ``admissible_mask``,
    every other node from the ``sibling_masks`` its parent computed once for
    all its children.  One level above the last, ``top_degree_filter``
    tests the degree-t part of the complete candidates of all the node's
    children at once; in visit order, the candidates that pass it are
    checked for an affine completion by ``candidate_checking``.  The budget
    counts complete candidates that fail either test; exhausting the
    candidate tree yields NotEquiv, exhausting the budget yields Undefined.
    """
    if f.space.params != fp.space.params:
        raise ValueError("space mismatch")
    _check_window(f)
    rng = rng or Random(0)
    m = f.m
    n = 1 << m

    maps = class_maps(f.space, [f.key, fp.key], sub)
    sig_f, sig_fp = j_hat_signatures(maps, sub.digest)
    if sig_f != sig_fp:
        return EquivalenceOutcome(NOT_EQUIV, None, 0, 0)

    sr = random_affine(m, rng)
    fr = q_apply_affine(f, sr)
    # the derivative of f o sr along v is the derivative of f along A v,
    # composed with sr, so the class map of fr is read off that of f
    fh_f = wht(maps[0][[matvec(sr.rows, v) for v in range(n)]])
    fh_fp = wht(maps[1])

    # Candidate images are tried in a per-level shuffled order.  When the
    # transform values barely constrain the search (near-flat spectra), a
    # fixed ascending order would spend the whole budget inside one barren
    # prefix subtree; shuffling keeps the completed candidates spread out
    # while the seeded rng keeps the call deterministic.
    orders = []
    for _ in range(m):
        level = list(range(n))
        rng.shuffle(level)
        orders.append(np.array(level))

    leaf_test = top_degree_filter(fr, fp)
    images = np.zeros(n, dtype=np.intp)
    head_points = 1 << np.arange(m - 2)
    state = {"verdict": NOT_EQUIV, "witness": None, "tested": 0, "budget": iter_budget}

    def check_leaves(heads: np.ndarray, ys: np.ndarray) -> None:
        # A = transpose(A*): the rows of A are the basis images under A*.
        verdicts = leaf_test(heads, ys).tolist()
        for head, y, passed in zip(heads.tolist(), ys.tolist(), verdicts):
            if state["verdict"] != NOT_EQUIV:
                return
            state["tested"] += 1
            if passed:
                rows = (*head, y)
                try:
                    a = candidate_checking(rows, fr, fp)
                except SingularMatrixError:
                    a = None
                if a is not None:
                    witness = compose(sr, AffineTransformation(m, rows, a))
                    assert q_apply_affine(f, witness) == fp
                    state["verdict"] = EQUIV
                    state["witness"] = witness
                    return
            state["budget"] -= 1
            if state["budget"] < 0:
                state["verdict"] = UNDEFINED

    def search(i: int, admissible: np.ndarray) -> None:
        order = orders[i - 1]
        ys = order[admissible[order]]
        if not len(ys):
            return
        if i == m:  # only a one-variable search starts on its last level
            check_leaves(np.zeros((len(ys), 0), dtype=np.intp), ys)
            return
        masks = sibling_masks(images, i, fh_f, fh_fp, ys)
        if i == m - 1:
            # The children are last-level nodes: their complete candidates,
            # in visit order, are tested in one batch.
            which, where = np.nonzero(masks[:, orders[m - 1]])
            heads = np.empty((len(which), m - 1), dtype=np.intp)
            heads[:, :-1] = images[head_points]
            heads[:, -1] = ys[which]
            check_leaves(heads, orders[m - 1][where])
            return
        half = 1 << (i - 1)
        for y, mask in zip(ys.tolist(), masks):
            if state["verdict"] != NOT_EQUIV:
                return
            images[half : 2 * half] = images[:half] ^ y
            search(i + 1, mask)

    search(1, admissible_mask(images, 1, fh_f, fh_fp))
    failed = iter_budget - state["budget"]
    return EquivalenceOutcome(state["verdict"], state["witness"], state["tested"], failed)
