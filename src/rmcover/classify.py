"""Orbit classification of quotient windows under AGL(m,2).

The exact oracle is a breadth-first closure over the whole window, feasible
whenever 2^dim fits the guard.  Large windows are handled by the cover-set
pipeline instead: decompose along the last variable, keep one g per class of
the lower window, reduce the h part by the stabilizer of g, then split the
surviving cover entries into orbits with the distribution invariants and the
backtracking equivalence test.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Iterable, Optional, Sequence

import numpy as np

from . import boolfun as bf
from .equivalence import DEFAULT_ITER_BUDGET, EQUIV, UNDEFINED, equivalent
from .group import (
    AffineTransformation,
    _StabilizerChain,
    agl_generators,
    agl_order,
    compose,
    gf2_echelon,
    gf2_reduce,
    identity,
    invert,
    subset_tables,
    xor_lookup,
)
from .invariant import class_maps, j_hat_signatures
from .quotient import (
    QuotientFunction,
    QuotientSpace,
    action_matrix,
    apply_key,
    lower_window,
    multiply_affine_form,
    quotient_space,
)

DEFAULT_SPACE_GUARD = 1 << 26
DEFAULT_INNER_GUARD = 1 << 24


class SpaceTooLargeError(RuntimeError):
    """The requested enumeration exceeds the configured guard."""


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
    from it.
    """

    space: QuotientSpace
    reps: list[int]
    orbit_sizes: Optional[list[int]] = None
    stabilizer_gens: Optional[list[Optional[list[AffineTransformation]]]] = None
    lookup: Optional[np.ndarray] = None
    provenance: str = ""
    generators: Optional[list[AffineTransformation]] = None
    digest: str = field(default="")

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

    def ensure_lookup(self) -> None:
        """Rebuild the complete orbit map by BFS if it is missing."""
        if self.lookup is not None:
            return
        gens = self.generators or agl_generators(self.space.m)
        rebuilt = orbit_enumerate(*self.space.params, gens, stabilizers=False)
        if rebuilt.reps != self.reps:
            raise ValueError(
                "stored representatives disagree with the BFS rebuild; "
                "refusing to attach a lookup with a different numbering"
            )
        if self.orbit_sizes not in (None, rebuilt.orbit_sizes):
            raise ValueError("stored orbit sizes disagree with the BFS rebuild")
        self.lookup = rebuilt.lookup
        self.orbit_sizes = rebuilt.orbit_sizes

    def classes_of(self, keys) -> np.ndarray:
        """Class numbers (int64) of an array of window keys, in its shape.

        The complete lookup numbers the keys.  A classification without one
        attaches it by BFS on first use, which raises SpaceTooLargeError
        past the guard.
        """
        self.ensure_lookup()
        return self.lookup[np.asarray(keys)].astype(np.int64)


# --- exact orbit enumeration ------------------------------------------------


_SCAN_BLOCK = 1 << 12


def _unlabeled(labels: np.ndarray) -> Iterable[int]:
    """Yield the smallest key whose label is negative, again after each orbit.

    The caller labels the orbit of each yielded key before asking for the
    next one, so every key below the last one yielded is labeled and the
    scan resumes there, one block at a time.
    """
    start = 0
    while start < len(labels):
        hits = np.flatnonzero(labels[start : start + _SCAN_BLOCK] < 0)
        if hits.size:
            start += int(hits[0])
            yield start
        else:
            start += _SCAN_BLOCK


def _walk_orbit(
    tables: Sequence[np.ndarray], labels: np.ndarray, start: int, value: int
) -> int:
    """Write value over the orbit of start, found by a frontier BFS; return its size.

    Each of ``tables`` is the ``subset_tables`` of one map, key byte c
    indexing group c.  The orbit must be unlabeled (negative) when the walk
    begins.  Each map is a bijection and its fresh images are labeled
    before the next map runs, so the frontier never holds a key twice.
    """
    labels[start] = value
    frontier = np.array([start], dtype=np.int64)
    size = 1
    while frontier.size:
        parts = []
        for tab in tables:
            img = xor_lookup(tab, ((frontier >> (8 * c)) & 255 for c in range(len(tab))))
            fresh = img[labels[img] < 0]
            if fresh.size:
                labels[fresh] = value
                parts.append(fresh)
                size += fresh.size
        frontier = np.concatenate(parts) if parts else frontier[:0]
    return size


def orbit_enumerate(
    s: int,
    t: int,
    m: int,
    generators: Optional[Sequence[AffineTransformation]] = None,
    *,
    space_guard: int = DEFAULT_SPACE_GUARD,
    stabilizers: bool = True,
) -> Classification:
    """Exact classification of a window by BFS over all of its elements.

    Representatives are the smallest key of each orbit, listed in increasing
    order, so the numbering is deterministic.  Returns the complete lookup
    and, with ``stabilizers``, irredundant generators of the stabilizer of
    every representative.
    """
    space = quotient_space(s, t, m)
    n = 1 << space.dim
    if n > space_guard:
        raise SpaceTooLargeError(
            f"window has 2^{space.dim} elements, guard allows {space_guard}"
        )
    gens = list(generators) if generators is not None else agl_generators(m)
    images_per_gen = [action_matrix(space, g) for g in gens]
    tables = [
        subset_tables(np.array(images, dtype=np.int64), 8) for images in images_per_gen
    ]

    lookup = np.full(n, -1, dtype=np.int32)
    reps: list[int] = []
    sizes: list[int] = []
    for start in _unlabeled(lookup):
        sizes.append(_walk_orbit(tables, lookup, start, len(reps)))
        reps.append(start)

    stab_lists: Optional[list[Optional[list[AffineTransformation]]]] = None
    if stabilizers:
        stab_lists = [
            _orbit_stabilizer_gens(m, gens, images_per_gen, rep, size)
            for rep, size in zip(reps, sizes)
        ]

    return Classification(
        space=space,
        reps=reps,
        orbit_sizes=sizes,
        stabilizer_gens=stab_lists,
        lookup=lookup,
        provenance=f"oracle-bfs gens={len(gens)}",
        generators=gens,
    )


def _orbit_stabilizer_gens(
    m: int,
    gens: Sequence[AffineTransformation],
    images_per_gen: Sequence[Sequence[int]],
    rep: int,
    orbit_size: int,
) -> list[AffineTransformation]:
    """Irredundant generators of the stabilizer of rep.

    One BFS from rep builds the transversal as it goes: an edge (x, g) that
    reaches a new point y sets t_y = t_x g, and its Schreier generator is the
    identity; an edge that reaches a known y gives t_x g t_y^-1, which is
    kept exactly when it does not sift through the stabilizer chain of those
    kept before it.  The walk stops as soon as the chain has the order
    |AGL| / |orbit| that orbit-stabilizer gives for Stab(rep), usually long
    before the orbit is covered.
    """
    stab_order = agl_order(m) // orbit_size
    chain = _StabilizerChain(m, stab_order)
    selected: list[AffineTransformation] = []
    transversal: dict[int, AffineTransformation] = {rep: identity(m)}
    inv_transversal: dict[int, AffineTransformation] = {}
    queue = deque([rep])
    while chain.order() != stab_order:
        if not queue:
            raise RuntimeError(
                f"Schreier generators of {rep:#x} generate {chain.order()} "
                f"elements, not |AGL| / |orbit| = {stab_order}"
            )
        x = queue.popleft()
        tx = transversal[x]
        for gi, images in enumerate(images_per_gen):
            y = apply_key(images, x)
            txg = compose(tx, gens[gi])
            if y not in transversal:
                transversal[y] = txg
                queue.append(y)
                continue
            ty_inv = inv_transversal.get(y)
            if ty_inv is None:
                ty_inv = inv_transversal[y] = invert(transversal[y])
            sg = compose(txg, ty_inv)
            if not chain.contains(sg):
                selected.append(sg)
                chain.add(sg)
    return selected


# --- cover sets --------------------------------------------------------------


@dataclass
class CoverSet:
    """Entries (g class index, h key) whose recompositions meet every orbit."""

    s: int
    t: int
    m: int
    size: int
    entries: Iterable[tuple[int, int]]

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
    per orbit survives.  The translations span a subspace T that every u
    maps into itself, so the orbits are unions of T-cosets and the walk runs
    on V/T: each coset is named by its smallest key, which has no pivot bit
    of T set, and numbered densely by deleting those bits.  Stabilizer lists
    may come from a file, so each u is checked to fix g and to map T into T.
    """
    _check_sub(s, t, m, sub)
    if sub.stabilizer_gens is None:
        raise ValueError("sub-classification carries no stabilizer generators")
    h_space = quotient_space(s, t, m - 1)
    if 1 << h_space.dim > DEFAULT_INNER_GUARD:
        raise SpaceTooLargeError(
            f"h window has 2^{h_space.dim} elements, guard allows {DEFAULT_INNER_GUARD}"
        )

    entries: list[tuple[int, int]] = []
    for g_idx in range(sub.n_classes):
        stab = sub.stabilizer_gens[g_idx]
        if stab is None:
            raise ValueError(f"missing stabilizer generators for class {g_idx}")
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

        tables = []
        for u in stab:
            images = action_matrix(h_space, u)
            if any(gf2_reduce(apply_key(images, b), basis) for b in basis):
                raise ValueError(
                    f"stabilizer generator of class {g_idx} does not preserve "
                    "the span of the alpha*g translations"
                )
            if apply_key(action_matrix(sub.space, u), g_fn.key) != g_fn.key:
                raise ValueError(
                    f"stabilizer generator of class {g_idx} does not fix its "
                    "representative"
                )
            moved = [compress(gf2_reduce(images[q], basis)) for q in free]
            tables.append(subset_tables(np.array(moved, dtype=np.int64), 8))

        labels = np.full(1 << len(free), -1, dtype=np.int8)
        for start in _unlabeled(labels):
            _walk_orbit(tables, labels, start, 0)
            entries.append(
                (g_idx, sum(((start >> j) & 1) << q for j, q in enumerate(free)))
            )

    return CoverSet(s, t, m, len(entries), entries)


# --- class lookup and the pipeline -------------------------------------------


DEFAULT_BUDGET_RETRIES = 3

_RESEED = 0x9E3779B9  # additive reseed step for fresh search randomization


def _pair_seed(seed: int, a: int, b: int) -> int:
    mix = hashlib.sha256(f"{seed}|{a:x}|{b:x}".encode()).digest()
    return int.from_bytes(mix[:8], "big")


def class_of(qf: QuotientFunction, classification: Classification) -> int:
    """Orbit index of qf in the given classification (``classes_of``)."""
    if qf.space.params != classification.space.params:
        raise ValueError("space mismatch")
    return int(classification.classes_of([qf.key])[0])


def _resolve_bucket(space, sub, keys, budget_iter, seed, retries):
    """Merge one invariant bucket; returns (reps, unresolved, calls, undefined).

    Keys are taken in increasing order, and each is searched against the
    representatives kept so far until one is equivalent.  Each pair is
    searched under its own seed from _pair_seed; while the verdict is
    Undefined the search is re-run with a fresh seed, up to ``retries`` runs
    in all.  Re-randomizing re-orders the candidate tree without changing
    the set of candidates, so it can only turn Undefined into a decided
    verdict.  A key that matches no representative becomes one, and each
    representative it stayed Undefined against makes an unresolved pair.
    """
    reps: list[int] = []
    unresolved: list[tuple[int, int]] = []
    calls = 0
    undefined = 0
    for key in sorted(keys):
        fn = space.function(key)
        undecided: list[int] = []
        for rkey in reps:
            rep_fn = space.function(rkey)
            pair_seed = _pair_seed(seed, rkey, key)
            for attempt in range(max(1, retries)):
                verdict = equivalent(
                    rep_fn, fn, sub, iter_budget=budget_iter,
                    rng=Random(pair_seed + attempt * _RESEED),
                ).verdict
                calls += 1
                if verdict != UNDEFINED:
                    break
                undefined += 1
            if verdict == EQUIV:
                break
            if verdict == UNDEFINED:
                undecided.append(rkey)
        else:
            reps.append(key)
            unresolved.extend((rkey, key) for rkey in undecided)
    return reps, unresolved, calls, undefined


@dataclass
class PipelineReport:
    space: tuple[int, int, int]
    initial_cover_size: int
    reduced_cover_size: int
    n_buckets: int
    n_classes: int
    equivalence_calls: int
    undefined_outcomes: int
    unresolved_pairs: list[tuple[int, int]]
    seed: int
    budget_iter: int


def classify_pipeline(
    s: int,
    t: int,
    m: int,
    sub: Classification,
    *,
    budget_iter: int = DEFAULT_ITER_BUDGET,
    retries: int = DEFAULT_BUDGET_RETRIES,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[Classification, PipelineReport]:
    """Cover set, invariant bucketing, equivalence: the full classifier.

    Within a bucket, candidates are merged by the equivalence search, with
    fresh search randomization up to ``retries`` times while the budget runs
    out; a still-Undefined outcome never merges or drops a candidate
    silently, it is surfaced as an unresolved pair in the report.
    """
    _check_sub(s, t, m, sub)

    space = quotient_space(s, t, m)
    initial_size = initial_cover_set(s, t, m, sub).size
    cover = reduce_cover_set(s, t, m, sub)

    keys = list(cover.assembled(sub))
    # numbering the derived keys attaches sub's lookup here, before a pool
    # pickles sub, so workers never rebuild it
    buckets: dict = {}
    for key, sig in zip(keys, j_hat_signatures(class_maps(space, keys, sub), sub.digest)):
        buckets.setdefault(sig, []).append(key)

    tasks = sorted(buckets.values(), key=lambda keys: (len(keys), keys), reverse=True)
    resolve = partial(
        _resolve_bucket, space, sub, budget_iter=budget_iter, seed=seed, retries=retries
    )
    if jobs > 1 and len(tasks) > 1:
        from .parallel import resolve_buckets_parallel

        results = resolve_buckets_parallel(resolve, tasks, jobs)
    else:
        results = [resolve(keys) for keys in tasks]

    rep_keys: list[int] = []
    unresolved: list[tuple[int, int]] = []
    calls = 0
    undefined = 0
    for keys, pairs, ncalls, nundef in results:
        rep_keys.extend(keys)
        unresolved.extend(pairs)
        calls += ncalls
        undefined += nundef
    rep_keys.sort()

    cls = Classification(
        space=space,
        reps=rep_keys,
        provenance=f"pipeline sub={sub.digest} seed={seed} iter={budget_iter}",
        generators=None,
    )
    report = PipelineReport(
        space=space.params,
        initial_cover_size=initial_size,
        reduced_cover_size=cover.size,
        n_buckets=len(buckets),
        n_classes=len(rep_keys),
        equivalence_calls=calls,
        undefined_outcomes=undefined,
        unresolved_pairs=unresolved,
        seed=seed,
        budget_iter=budget_iter,
    )
    return cls, report


# --- classification files -----------------------------------------------------


def _encode_affine(g: AffineTransformation) -> str:
    return ",".join(format(r, "x") for r in g.rows) + ";" + format(g.trans, "x")


def _decode_affine(text: str, m: int) -> AffineTransformation:
    rows_text, _, trans_text = text.partition(";")
    rows = tuple(int(p, 16) for p in rows_text.split(","))
    return AffineTransformation(m, rows, int(trans_text or "0", 16))


def write_text_atomic(path: str, text: str) -> None:
    """Replace the file at path with text, or leave it as it was.

    The text goes to a temporary file in the same directory, which is synced
    and then renamed over path; a write that fails partway removes the
    temporary file and never truncates the previous one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


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
            if gens is None:
                continue
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
    stab_lists = None
    if stab:
        stab_lists = [stab.get(i) for i in range(len(reps))]
    return Classification(
        space=space,
        reps=reps,
        orbit_sizes=orbit_sizes,
        stabilizer_gens=stab_lists,
        lookup=None,
        provenance=provenance or "",
        generators=generators or None,
        digest=digest,
    )
