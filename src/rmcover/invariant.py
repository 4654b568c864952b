"""Derivative class maps and their distribution invariants.

For f in a window (s, t, m) the class map sends each direction v to the
equivalence class of the restricted derivative of f along v, numbered by a
fixed classification of the (s-1, t-1, m-1) window.  Its value distribution
and the distribution of its integer Walsh-Hadamard transform are invariant
under the affine action; they are the workhorse filters of the classifier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import boolfun as bf
from .quotient import QuotientFunction, quotient_space


@dataclass(frozen=True)
class ClassMap:
    """Class index of the restricted derivative, for every direction."""

    m: int
    values: tuple[int, ...]
    classification_digest: str


@dataclass(frozen=True)
class InvariantSignature:
    """Sorted (value, multiplicity) histogram, pinned to a class numbering."""

    kind: str
    pairs: tuple[tuple[int, int], ...]
    classification_digest: str


def class_map(f: QuotientFunction, sub) -> ClassMap:
    """Map each direction to the class of the restricted derivative.

    ``sub`` must classify the (s-1, t-1, m-1) window.  The zero direction maps
    to the class of the zero function.
    """
    expect = (max(f.s - 1, 0), f.t - 1, f.m - 1)
    if tuple(sub.space.params) != expect:
        raise ValueError(
            f"classification covers {sub.space.params}, class map needs {expect}"
        )
    from .classify import class_of

    sub_space = quotient_space(*expect)
    lift = f.lift()
    values = [0] * (1 << f.m)
    zero_cls = class_of(sub_space.zero(), sub)
    values[0] = zero_cls
    for v in range(1, 1 << f.m):
        der = bf.derivative(lift, v)
        if der.tt == 0:
            values[v] = zero_cls
            continue
        restricted = bf.restrict(der, v)
        key = sub_space.key_from_anf(bf.mobius_transform(restricted.tt, restricted.m))
        values[v] = class_of(sub_space.function(key), sub)
    return ClassMap(f.m, tuple(values), sub.digest)


def j_signature(cm: ClassMap) -> InvariantSignature:
    """Distribution of the class-map values."""
    pairs = tuple(sorted(Counter(cm.values).items()))
    return InvariantSignature("J", pairs, cm.classification_digest)


def fourier_map(cm: ClassMap) -> tuple[int, ...]:
    """Integer Walsh-Hadamard transform of the class map."""
    return tuple(bf.wht(cm.values).tolist())


def j_hat_signature(cm: ClassMap) -> InvariantSignature:
    """Distribution of the Walsh-Hadamard transform of the class map."""
    pairs = tuple(sorted(Counter(fourier_map(cm)).items()))
    return InvariantSignature("Jhat", pairs, cm.classification_digest)
