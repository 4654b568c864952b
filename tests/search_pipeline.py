"""The search route of the classifier, kept as the tests' cross-check.

The package numbers classes by exact P-orbit labels.  This is the route it
replaced: bucket the reduced cover by J-hat signatures, then merge each
bucket with the randomized backtracking search ``equivalent``.  It shares
only the cover and the invariants with the package's pipeline, so agreeing
representatives check the labels against an independent merge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from rmcover.classify import Classification, reduce_cover_set
from rmcover.equivalence import DEFAULT_ITER_BUDGET, EQUIV, UNDEFINED, equivalent
from rmcover.invariant import class_maps, j_hat_signatures
from rmcover.quotient import quotient_space

RESEED = 0x9E3779B9  # additive reseed step for fresh search randomization


def pair_seed(seed: int, a: int, b: int) -> int:
    mix = hashlib.sha256(f"{seed}|{a:x}|{b:x}".encode()).digest()
    return int.from_bytes(mix[:8], "big")


def resolve_bucket(space, sub, keys, budget_iter, seed, retries):
    """Merge one invariant bucket; returns (reps, unresolved, calls, undefined).

    Keys are taken in increasing order, and each is searched against the
    representatives kept so far until one is equivalent.  Each pair is
    searched under its own seed from pair_seed; while the verdict is
    Undefined the search is re-run with a fresh seed, up to ``retries`` runs
    in all.  A key that matches no representative becomes one, and each
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
            seeded = pair_seed(seed, rkey, key)
            for attempt in range(max(1, retries)):
                verdict = equivalent(
                    rep_fn, fn, sub, iter_budget=budget_iter,
                    rng=Random(seeded + attempt * RESEED),
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
class SearchReport:
    n_buckets: int
    equivalence_calls: int
    undefined_outcomes: int
    unresolved_pairs: list[tuple[int, int]]


def search_pipeline(s, t, m, sub, *, budget_iter=DEFAULT_ITER_BUDGET, retries=3, seed=0):
    """Cover set, J-hat buckets and the equivalence search within each."""
    space = quotient_space(s, t, m)
    keys = list(reduce_cover_set(s, t, m, sub).assembled(sub))
    buckets: dict = {}
    for key, sig in zip(keys, j_hat_signatures(class_maps(space, keys, sub), sub.digest)):
        buckets.setdefault(sig, []).append(key)
    rep_keys: list[int] = []
    report = SearchReport(len(buckets), 0, 0, [])
    for bucket in buckets.values():
        reps, pairs, calls, undefined = resolve_bucket(
            space, sub, bucket, budget_iter, seed, retries
        )
        rep_keys.extend(reps)
        report.unresolved_pairs.extend(pairs)
        report.equivalence_calls += calls
        report.undefined_outcomes += undefined
    return Classification(space=space, reps=sorted(rep_keys)), report
