"""Derivative class maps and their distribution invariants.

For f in a window (s, t, m) the class map sends each direction v to the
equivalence class of the restricted derivative of f along v, numbered by a
fixed classification of the (s-1, t-1, m-1) window.  Its value distribution
and the distribution of its integer Walsh-Hadamard transform are invariant
under the affine action; they are the workhorse filters of the classifier.

For a fixed direction v, f -> key of restrict(D_v f, v) is GF(2)-linear on
window keys, so all directions of a batch of keys are read off the Four
Russians tables of ``group.subset_tables``, one group per key byte
(``derivative_tables``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .boolfun import wht
from .group import subset_tables, xor_lookup
from .quotient import QuotientFunction, QuotientSpace, lower_window, quotient_space


@dataclass(frozen=True)
class InvariantSignature:
    """Sorted (value, multiplicity) histogram, pinned to a class numbering."""

    kind: str
    pairs: tuple[tuple[int, int], ...]
    classification_digest: str


def _derived_key(mask: int, v: int, sub: QuotientSpace) -> int:
    """Key in ``sub`` of restrict(D_v x^mask, v), for v != 0.

    (x + v)^mask is the sum of x^(mask - T) over the subsets T of mask & v,
    so D_v x^mask keeps the nonempty T.  Restricting to x_p = 0, p the top
    coordinate of v, drops the terms that still hold x_p (T must take p when
    mask has it) and closes the gap at p; ``sub`` then keeps its degrees.
    """
    p = v.bit_length() - 1
    below = (1 << p) - 1
    forced = mask & (1 << p)
    free = mask & v & ~forced
    key = 0
    part = free
    while True:
        taken = forced | part
        if taken:
            rest = mask ^ taken
            j = sub.index.get(((rest >> (p + 1)) << p) | (rest & below))
            if j is not None:
                key |= 1 << j
        if not part:
            return key
        part = (part - 1) & free


@lru_cache(maxsize=None)
def derivative_tables(s: int, t: int, m: int) -> np.ndarray:
    """Tables of the derived sub keys of the (s, t, m) window, by key byte.

    The ``subset_tables`` of the map, 8 key bits to a group: entry [c, b, v]
    is the (s-1, t-1, m-1) key of restrict(D_v f, v) for the f whose key is
    byte value b at key byte c and zero elsewhere; direction 0 maps to the
    zero key.  The array is shared by every caller and read-only.
    """
    space = quotient_space(s, t, m)
    sub = quotient_space(*lower_window(s, t, m))
    if sub.dim > 63:
        raise ValueError(f"derived keys of {sub} do not fit in int64")
    images = np.zeros((space.dim, 1 << m), dtype=np.int64)
    for j, mask in enumerate(space.masks):
        images[j, 1:] = [_derived_key(mask, v, sub) for v in range(1, 1 << m)]
    tables = subset_tables(images, 8)
    tables.setflags(write=False)
    return tables


def derived_keys(space: QuotientSpace, keys: Sequence[int]) -> np.ndarray:
    """Keys of restrict(D_v f, v) for a batch of window keys, all v at once.

    Row i, column v holds the (s-1, t-1, m-1) key derived from keys[i] along
    v: ``xor_lookup`` indexes each group of the tables by one key byte.  The
    window keys may be wider than 63 bits, so they are split into bytes in
    Python.
    """
    tables = derivative_tables(*space.params)
    nbytes = len(tables)
    parts = np.frombuffer(
        b"".join(key.to_bytes(nbytes, "little") for key in keys), dtype=np.uint8
    ).reshape(len(keys), nbytes)
    return xor_lookup(tables, parts.T)


def class_maps(space: QuotientSpace, keys: Sequence[int], sub) -> np.ndarray:
    """Class maps of a batch of window keys: row i holds that of keys[i].

    ``sub`` must classify the (s-1, t-1, m-1) window; it numbers the derived
    keys itself (``Classification.classes_of``), from its complete lookup,
    which it attaches by BFS when it has none.  The zero direction maps to
    the class of the zero function.
    """
    expect = lower_window(*space.params)
    if tuple(sub.space.params) != expect:
        raise ValueError(
            f"classification covers {sub.space.params}, class map needs {expect}"
        )
    return sub.classes_of(derived_keys(space, keys))


def class_map(f: QuotientFunction, sub) -> np.ndarray:
    """Class map of one function: ``class_maps`` on a batch of one."""
    return class_maps(f.space, [f.key], sub)[0]


def _histograms(kind: str, rows, digest: str) -> list[InvariantSignature]:
    """One sorted (value, multiplicity) signature per row, for all rows at once.

    After sorting each row, a run starts wherever a value differs from its
    left neighbour, and every row starts one; in row-major order the next
    start (or the end) closes each run, so one diff counts them all.
    """
    if not len(rows):
        return []
    rows = np.sort(np.asarray(rows), axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    flat = np.flatnonzero(starts)
    values = rows.ravel()[flat].tolist()
    counts = np.diff(flat, append=rows.size).tolist()
    ends = np.cumsum(starts.sum(1)).tolist()
    out = []
    begin = 0
    for end in ends:
        pairs = tuple(zip(values[begin:end], counts[begin:end]))
        out.append(InvariantSignature(kind, pairs, digest))
        begin = end
    return out


def j_signatures(maps: np.ndarray, digest: str) -> list[InvariantSignature]:
    """Distribution of the values of each class map, one per row of ``maps``."""
    return _histograms("J", maps, digest)


def j_hat_signatures(maps: np.ndarray, digest: str) -> list[InvariantSignature]:
    """Distribution of the Walsh-Hadamard transform of each row of ``maps``."""
    if not len(maps):
        return []
    # wht transforms every column of a 2-D array
    return _histograms("Jhat", wht(np.asarray(maps, dtype=np.int64).T).T, digest)
