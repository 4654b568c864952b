"""End-to-end acceptance runs, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them).
The heavyweight cases stay within a desktop budget: the largest enumeration
is the 2^21-element window, the largest exact radius is over 2^26 cosets.
"""

import math
import random

import pytest

from rmcover import boolfun as bf
from rmcover.boolfun import BooleanFunction, dirac, mobius_transform, parse_function
from rmcover.classify import (
    class_of,
    classify_pipeline,
    initial_cover_set,
    orbit_enumerate,
    reduce_cover_set,
)
from rmcover.equivalence import EQUIV, NOT_EQUIV, equivalent
from rmcover.group import matvec, random_affine
from rmcover.invariant import class_map, j_hat_signatures, j_signatures
from rmcover.nonlinearity import (
    RadiusTable,
    bounds_propagate,
    covering_radius_exact,
    nl_probe,
    odd_weight_reduction,
    probe_batch,
)
from rmcover.quotient import q_apply_affine, quotient_space

QUINTIC_12_TERMS = (
    "abcef+acdef+abcdg+abdeg+abcfg+acdeh+abcfh+bdefh+bcdgh+abegh+adfgh+cefgh"
)
CUBIC_13_TERMS = "abd+bcf+bef+def+acg+deg+cdh+aeh+afh+bfh+efh+bgh+dgh"


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_c1_quintic_window_seven_vars(self):
        from rmcover.classify import class_of

        cls = orbit_enumerate(5, 5, 7)
        ok = cls.n_classes == 4 and sum(cls.orbit_sizes) == 1 << 21
        rng = random.Random(11)
        for i in range(cls.n_classes):
            moved = q_apply_affine(cls.rep_function(i), random_affine(7, rng))
            ok = ok and class_of(moved, cls) == i
        report("C1", ok, f"window (5,5,7) has {cls.n_classes} classes over 2^21 elements")

    def test_c2_pipeline_matches_oracle(self):
        cases = [
            ((2, 2, 3), (1, 1, 2)),
            ((2, 3, 4), (1, 2, 3)),
            ((3, 3, 5), (2, 2, 4)),
            ((2, 3, 5), (1, 2, 4)),
        ]
        results = []
        ok = True
        for (s, t, m), sub_params in cases:
            sub = orbit_enumerate(*sub_params)
            oracle = orbit_enumerate(s, t, m, stabilizers=False)
            cls, rep = classify_pipeline(s, t, m, sub)
            good = (cls.reps, cls.orbit_sizes) == (oracle.reps, oracle.orbit_sizes)
            results.append(
                f"({s},{t},{m}) pipeline={cls.n_classes} oracle={oracle.n_classes}"
            )
            ok = ok and good
        report("C2", ok, "; ".join(results))

    def test_c3_cover_property(self):
        sub = orbit_enumerate(1, 2, 3)
        oracle = orbit_enumerate(2, 3, 4)
        init = initial_cover_set(2, 3, 4, sub)
        red = reduce_cover_set(2, 3, 4, sub)
        hit_init = set(oracle.classes_of(list(init.assembled(sub))).tolist())
        hit_red = set(oracle.classes_of(list(red.assembled(sub))).tolist())
        all_classes = set(range(oracle.n_classes))
        ok = hit_init == all_classes and hit_red == all_classes and red.size <= init.size
        report(
            "C3",
            ok,
            f"initial {init.size} and reduced {red.size} entries both meet all "
            f"{oracle.n_classes} orbits",
        )

    def test_c4_invariant_soundness(self):
        plan = [
            ((2, 3, 4), (1, 2, 3), 300),
            ((2, 3, 5), (1, 2, 4), 250),
            ((3, 3, 5), (2, 2, 4), 150),
            ((2, 3, 6), (1, 2, 5), 150),
            ((4, 5, 6), (3, 4, 5), 150),
        ]
        rng = random.Random(41)
        failures = 0
        trials = 0
        for (s, t, m), sub_params, count in plan:
            sub = orbit_enumerate(*sub_params)
            space = quotient_space(s, t, m)
            for _ in range(count):
                f = space.function(rng.randrange(1 << space.dim))
                u = random_affine(m, rng)
                fu = q_apply_affine(f, u)
                cm_f = class_map(f, sub)
                cm_fu = class_map(fu, sub)
                trials += 1
                j_f, j_fu = j_signatures([cm_f, cm_fu], sub.digest)
                if j_f != j_fu:
                    failures += 1
                    continue
                jh_f, jh_fu = j_hat_signatures([cm_f, cm_fu], sub.digest)
                if jh_f != jh_fu:
                    failures += 1
                    continue
                if any(
                    cm_fu[v] != cm_f[matvec(u.rows, v)]
                    for v in range(1 << m)
                ):
                    failures += 1
        report("C4", failures == 0, f"{trials} trials, {failures} failures")

    def test_c5_equivalence_tri_state_soundness(self):
        plan = [((2, 3, 4), (1, 2, 3), 500), ((2, 3, 5), (1, 2, 4), 500)]
        rng = random.Random(42)
        soundness_failures = 0
        undefined = 0
        trials = 0
        for (s, t, m), sub_params, count in plan:
            sub = orbit_enumerate(*sub_params)
            oracle = orbit_enumerate(s, t, m, stabilizers=False)
            space = oracle.space
            for i in range(count):
                # half the pairs are forced into one orbit, half are uniform
                f = space.function(rng.randrange(1 << space.dim))
                if i % 2:
                    g = q_apply_affine(f, random_affine(m, rng))
                else:
                    g = space.function(rng.randrange(1 << space.dim))
                out = equivalent(f, g, sub, iter_budget=4096, rng=rng)
                same = class_of(f, oracle) == class_of(g, oracle)
                trials += 1
                if out.verdict == EQUIV:
                    if not same or q_apply_affine(f, out.witness) != g:
                        soundness_failures += 1
                elif out.verdict == NOT_EQUIV:
                    if same:
                        soundness_failures += 1
                else:
                    undefined += 1
        report(
            "C5",
            soundness_failures == 0,
            f"{trials} labeled pairs, {soundness_failures} soundness failures, "
            f"undefined rate {undefined / trials:.4f}",
        )

    def test_c6_exact_radii_and_probe(self):
        r14 = covering_radius_exact(1, 4)
        r15 = covering_radius_exact(1, 5)
        bent = parse_function("ab+cd", 4)
        hit = nl_probe(1, 4, bent, 10**6, 6, 61)
        miss = nl_probe(1, 4, bent, 10**6, 5, 62)
        ok = (
            r14 == 6
            and r15 == 12
            and hit.found
            and not miss.found
            and miss.passes_used == 10**6
            and miss.best_weight == 6
        )
        report(
            "C6",
            ok,
            f"rho(1,4)={r14} rho(1,5)={r15}; bent probe found@6={hit.found}, "
            f"found@5={miss.found} after {miss.passes_used} sweeps",
        )

    def test_c7_probe_scale_m8(self):
        cubic = parse_function(CUBIC_13_TERMS, 8)
        quintic = parse_function(QUINTIC_12_TERMS, 8)
        r2 = nl_probe(2, 8, cubic, 10**6, 88, 1)
        r4 = nl_probe(4, 8, quintic, 10**6, 26, 1)
        ok = r2.found and r4.found
        report(
            "C7",
            ok,
            f"order-2 weight {r2.best_weight} in {r2.passes_used} sweeps; "
            f"order-4 weight {r4.best_weight} in {r4.passes_used} sweeps",
        )

    def test_c8_bound_arithmetic(self):
        table = RadiusTable()
        for k, rho in zip(range(1, 8), (56, 40, 20, 8, 2, 1, 0)):
            table.set_exact(k, 7, rho, "known")
        table.set_exact(6, 8, 2, "known")
        table.set_relative(4, 6, 8, 0, 26, "probe-upper")
        closed = bounds_propagate(table)  # raises on inconsistency
        b = closed.bound(4, 8)
        ok = (b.lo, b.hi) == (20, 28)
        report("C8", ok, f"derived {b.lo} <= rho(4,8) <= {b.hi}, no inconsistency")

    def test_c9_dirac_reduction(self):
        rng = random.Random(91)
        failures = 0
        trials = 0
        for _ in range(1000):
            m = rng.randrange(2, 9)
            tt = rng.getrandbits(1 << m)
            if tt.bit_count() % 2 == 0:
                tt ^= 1 << rng.randrange(1 << m)
            h = BooleanFunction(m, tt)
            a = odd_weight_reduction(h)
            trials += 1
            if bf.degree(h ^ dirac(a, m)) > m - 2:
                failures += 1
        report("C9", failures == 0, f"{trials} odd-weight reductions, {failures} failures")

    def test_c10_property_suites(self):
        rng = random.Random(101)
        problems = []

        # Moebius involution: exhaustive through m=4, randomized through m=8
        for m in (1, 2, 3):
            for v in range(1 << (1 << m)):
                if mobius_transform(mobius_transform(v, m), m) != v:
                    problems.append(f"moebius m={m}")
                    break
        for v in range(1 << 16):
            if mobius_transform(mobius_transform(v, 4), 4) != v:
                problems.append("moebius m=4")
                break
        for m in (5, 6, 7, 8):
            for _ in range(200):
                v = rng.getrandbits(1 << m)
                if mobius_transform(mobius_transform(v, m), m) != v:
                    problems.append(f"moebius m={m}")
                    break

        # derivative cocycle degree drop: exhaustive directions at m<=4
        for m in (2, 3, 4):
            for _ in range(5):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                d = bf.degree(f)
                for u in range(1 << m):
                    for v in range(1 << m):
                        mix = (
                            bf.derivative(f, u ^ v)
                            ^ bf.derivative(f, u)
                            ^ bf.derivative(f, v)
                        )
                        if bf.degree(mix) > max(d - 2, -math.inf):
                            problems.append(f"cocycle m={m}")
        for m in (6, 8):
            for _ in range(50):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                u, v = rng.getrandbits(m), rng.getrandbits(m)
                mix = (
                    bf.derivative(f, u ^ v) ^ bf.derivative(f, u) ^ bf.derivative(f, v)
                )
                if bf.degree(mix) > max(bf.degree(f) - 2, -math.inf):
                    problems.append(f"cocycle m={m}")

        # action associativity: exhaustive over the generator set at m=2,
        # randomized elements at m<=8
        from rmcover.boolfun import apply_affine
        from rmcover.group import agl_generators, compose

        gens2 = agl_generators(2)
        for a in gens2:
            for b in gens2:
                for c in gens2:
                    if compose(compose(a, b), c) != compose(a, compose(b, c)):
                        problems.append("associativity m=2")
        for m in (3, 5, 8):
            for _ in range(30):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                s1, s2 = random_affine(m, rng), random_affine(m, rng)
                if apply_affine(apply_affine(f, s1), s2) != apply_affine(
                    f, compose(s1, s2)
                ):
                    problems.append(f"action m={m}")

        # probe keeps its working function inside the original coset
        for _ in range(3):
            f = BooleanFunction(4, rng.getrandbits(16))
            nl_probe(2, 4, f, 8, 0, rng.getrandbits(32), check_coset=True)
        f8 = BooleanFunction(8, rng.getrandbits(256))
        nl_probe(2, 8, f8, 3, 0, rng.getrandbits(32), check_coset=True)
        # a batch checks every function against its own coset
        probe_batch(2, 4, [rng.getrandbits(16) for _ in range(6)], 8, 0, rng.getrandbits(32),
                    check_coset=True)
        probe_batch(2, 8, [f8.tt ^ (1 << a) for a in range(0, 256, 51)], 3, 0,
                    rng.getrandbits(32), check_coset=True)

        # signature digest guard
        sub = orbit_enumerate(1, 2, 3)
        space = quotient_space(2, 3, 4)
        f = space.function(rng.randrange(1 << space.dim))
        cm = class_map(f, sub)
        for signatures, tag in ((j_signatures, ""), (j_hat_signatures, " (walsh)")):
            if signatures([cm], "f" * 16) == signatures([cm], sub.digest):
                problems.append("digest guard" + tag)

        report("C10", not problems, f"property suites clean: {problems or 'yes'}")
