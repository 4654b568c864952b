import random

import numpy as np
import pytest

from rmcover.boolfun import anf_degree, anf_from_string, mobius_transform, wht
from rmcover.classify import class_of, orbit_enumerate
from rmcover.equivalence import (
    EQUIV,
    NOT_EQUIV,
    UNDEFINED,
    admissible_mask,
    candidate_checking,
    equivalent,
    sibling_masks,
    top_degree_filter,
)
from rmcover.group import (
    AffineTransformation,
    SingularMatrixError,
    identity_rows,
    invert_rows,
    matvec,
    random_affine,
)
from rmcover.invariant import class_map
from rmcover.quotient import q_apply_affine, quotient_space


def qf(text, s, t, m):
    space = quotient_space(s, t, m)
    return space.function(space.key_from_anf(anf_from_string(text, m).coeffs))


class TestCandidateChecking:
    def test_identity_on_equal_functions(self):
        f = qf("abc", 2, 3, 4)
        assert candidate_checking(identity_rows(4), f, f) == 0

    def test_constructed_witness(self):
        rng = random.Random(0)
        space = quotient_space(2, 3, 4)
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fp = q_apply_affine(f, s)
            a = candidate_checking(s.rows, f, fp)
            assert a is not None
            assert q_apply_affine(f, AffineTransformation(4, s.rows, a)) == fp

    def test_rejects_non_witness(self):
        f = qf("abc", 2, 3, 4)
        fp = qf("abc+abd", 2, 3, 4)
        assert candidate_checking(identity_rows(4), f, fp) is None

    def test_s_equals_t_window(self):
        rng = random.Random(1)
        space = quotient_space(3, 3, 4)
        for _ in range(10):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fp = q_apply_affine(f, s)
            a = candidate_checking(s.rows, f, fp)
            assert a == 0
            assert q_apply_affine(f, AffineTransformation(4, s.rows, a)) == fp

    def test_singular_rejected(self):
        from rmcover.group import SingularMatrixError

        f = qf("abc", 2, 3, 4)
        with pytest.raises(SingularMatrixError):
            candidate_checking((1, 1, 4, 8), f, f)


class TestAdmissible:
    def _setup(self, sub123, seed=2):
        rng = random.Random(seed)
        space = quotient_space(2, 3, 4)
        f = space.function(rng.randrange(1 << space.dim))
        fh = wht(class_map(f, sub123))
        return f, fh

    def test_first_level_value_mismatch(self, sub123):
        f, fh = self._setup(sub123)
        images = [0] * 16
        bad_y = [y for y in range(1, 16) if fh[y] != fh[1]]
        if bad_y:
            assert not admissible_mask(images, 1, fh, fh)[bad_y[0]]

    def test_identity_continuation(self, sub123):
        f, fh = self._setup(sub123)
        images = [0] * 16
        ok = True
        for i in range(1, 5):
            y = 1 << (i - 1)
            ok = ok and admissible_mask(images, i, fh, fh)[y]
            half = 1 << (i - 1)
            for z in range(half):
                images[z | half] = images[z] ^ y
        assert ok

    def test_injectivity_guard(self, sub123):
        f, fh = self._setup(sub123)
        images = [0] * 16
        images[1] = 3
        # y inside the current image span is rejected no matter the values
        assert not admissible_mask(images, 2, fh, fh)[3]
        assert not admissible_mask(images, 1, fh, fh)[0]

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_mask_matches_per_y_loop(self, m):
        sub = orbit_enumerate(1, 2, m - 1)
        space = quotient_space(2, 3, m)
        rng = random.Random(m)
        n = 1 << m
        # a flat spectrum leaves only the injectivity condition
        spectra = [([0] * n, [0] * n)]
        for _ in range(3):
            f = space.function(rng.randrange(1 << space.dim))
            fp = q_apply_affine(f, random_affine(m, rng))
            spectra.append((wht(class_map(f, sub)), wht(class_map(fp, sub))))
        admitted = 0
        for fh_f, fh_fp in spectra:
            for i in range(1, m + 1):
                half = 1 << (i - 1)
                # identity prefix, then random prefixes, dependent ones included
                prefixes = [[1 << j for j in range(i - 1)]]
                prefixes += [[rng.randrange(n) for _ in range(i - 1)] for _ in range(3)]
                for rows in prefixes:
                    images = [0] * n
                    for j, row in enumerate(rows):
                        for z in range(1 << j):
                            images[z | (1 << j)] = images[z] ^ row
                    span = set(images[:half])
                    expect = [
                        y not in span
                        and all(fh_fp[images[z] ^ y] == fh_f[z | half] for z in range(half))
                        for y in range(n)
                    ]
                    mask = admissible_mask(images, i, fh_f, fh_fp)
                    assert mask.tolist() == expect
                    admitted += sum(expect)
                    if i == m:
                        continue
                    # the children's masks, for every y, from the parent
                    fh = (np.array(fh_f), np.array(fh_fp))
                    children = sibling_masks(np.array(images), i, *fh, np.arange(n))
                    for y in range(n):
                        extended = images[:half] + [z ^ y for z in images[:half]]
                        child = admissible_mask(extended, i + 1, fh_f, fh_fp)
                        assert children[y].tolist() == child.tolist()
        assert admitted


def _top_coefficients_of_composition(f, rows, t):
    """Degree-t ANF coefficients of f o A for any (possibly singular) A."""
    tt = f.lift().tt
    composed = 0
    for x in range(1 << f.m):
        composed |= ((tt >> matvec(rows, x)) & 1) << x
    anf = mobius_transform(composed, f.m)
    return [(anf >> mask) & 1 for mask in range(1 << f.m) if mask.bit_count() == t]


class TestTopDegreeFilter:
    @pytest.mark.parametrize("params", [(2, 3, 5), (3, 3, 5), (2, 3, 6)])
    def test_exact_for_degree_test(self, params):
        s, t, m = params
        space = quotient_space(s, t, m)
        rng = random.Random(sum(params))
        n = 1 << m
        singular = passed = 0
        for _ in range(6):
            f = space.function(rng.randrange(1 << space.dim))
            fp = space.function(rng.randrange(1 << space.dim))
            head = tuple(rng.randrange(n) for _ in range(m - 1))
            if rng.random() < 0.5:
                # the head of a witness, so that some y pass
                w = random_affine(m, rng)
                fp = q_apply_affine(f, w)
                head = w.rows[:-1]
            verdicts = top_degree_filter(f, fp)(head, np.arange(n)).tolist()
            fp_top = [(fp.anf >> mask) & 1 for mask in range(n) if mask.bit_count() == t]
            for y, verdict in enumerate(verdicts):
                rows = head + (y,)
                # The filter computes what it says for every A, singular or not.
                assert verdict == (_top_coefficients_of_composition(f, rows, t) == fp_top)
                try:
                    ainv = invert_rows(rows, m)
                except SingularMatrixError:
                    singular += 1
                    with pytest.raises(SingularMatrixError):
                        candidate_checking(rows, f, fp)
                    continue
                # For invertible A it is exactly the degree test of candidate_checking.
                g = q_apply_affine(fp, AffineTransformation(m, ainv, 0)) ^ f
                assert verdict == (anf_degree(g.anf) <= t - 1)
                if candidate_checking(rows, f, fp) is not None:
                    assert verdict
                passed += verdict
        assert singular and passed

    @pytest.mark.parametrize("params", [(2, 3, 5), (3, 3, 5), (2, 3, 6)])
    def test_true_witness_always_passes(self, params):
        s, t, m = params
        space = quotient_space(s, t, m)
        rng = random.Random(10 + sum(params))
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            w = random_affine(m, rng)
            fp = q_apply_affine(f, w)
            ys = np.array([rng.randrange(1 << m), w.rows[-1], rng.randrange(1 << m)])
            assert top_degree_filter(f, fp)(w.rows[:-1], ys)[1]


    @pytest.mark.parametrize("params", [(2, 3, 5), (1, 2, 7)])
    def test_one_head_per_candidate(self, params):
        # a batch with a head per y gives the verdicts of each head alone
        s, t, m = params
        space = quotient_space(s, t, m)
        rng = random.Random(20 + sum(params))
        n = 1 << m
        f = space.function(rng.randrange(1 << space.dim))
        w = random_affine(m, rng)
        test = top_degree_filter(f, q_apply_affine(f, w))
        heads = [w.rows[:-1]] + [
            w.rows[:-2] + (rng.randrange(n),) if k % 2 else
            tuple(rng.randrange(n) for _ in range(m - 1))
            for k in range(15)
        ]
        ys = [w.rows[-1]] + [rng.randrange(n) for _ in range(15)]
        verdicts = test(np.array(heads), ys).tolist()
        assert verdicts == [test(head, [y])[0] for head, y in zip(heads, ys)]
        assert verdicts[0]


class TestEquivalent:
    def test_constructed_pairs(self, sub123):
        rng = random.Random(3)
        space = quotient_space(2, 3, 4)
        for _ in range(25):
            f = space.function(rng.randrange(1 << space.dim))
            fp = q_apply_affine(f, random_affine(4, rng))
            out = equivalent(f, fp, sub123, iter_budget=4096, rng=rng)
            assert out.verdict == EQUIV
            assert q_apply_affine(f, out.witness) == fp

    def test_distinct_invariants_short_circuit(self):
        sub = orbit_enumerate(1, 2, 5)
        f = qf("abc", 2, 3, 6)
        fp = qf("abc+def", 2, 3, 6)
        out = equivalent(f, fp, sub, iter_budget=64, rng=random.Random(0))
        assert out.verdict == NOT_EQUIV
        assert out.candidates_tested == 0

    def test_oracle_agreement(self, sub123, oracle234):
        rng = random.Random(4)
        space = oracle234.space
        for _ in range(150):
            f = space.function(rng.randrange(1 << space.dim))
            g = space.function(rng.randrange(1 << space.dim))
            out = equivalent(f, g, sub123, iter_budget=4096, rng=rng)
            same = class_of(f, oracle234) == class_of(g, oracle234)
            if out.verdict == EQUIV:
                assert same
                assert q_apply_affine(f, out.witness) == g
            elif out.verdict == NOT_EQUIV:
                assert not same

    def test_budget_zero_gives_undefined(self, sub123):
        # frozen instance whose first full candidate fails the affine check
        space = quotient_space(2, 3, 4)
        f = space.function(20)
        fp = q_apply_affine(f, random_affine(4, random.Random(1000)))
        out = equivalent(f, fp, sub123, iter_budget=0, rng=random.Random(0))
        assert out.verdict == UNDEFINED
        assert out.candidates_tested >= 1

    def test_budget_monotonicity(self, sub123):
        space = quotient_space(2, 3, 4)
        f = space.function(20)
        fp = q_apply_affine(f, random_affine(4, random.Random(1000)))
        verdicts = []
        for budget in (0, 2, 8, 64, 4096):
            out = equivalent(f, fp, sub123, iter_budget=budget, rng=random.Random(0))
            verdicts.append(out.verdict)
        # Undefined may resolve as the budget grows, decided verdicts never flip
        decided = [v for v in verdicts if v != UNDEFINED]
        assert all(v == decided[0] for v in decided)
        assert verdicts[-1] == EQUIV

    def test_determinism(self, sub123):
        space = quotient_space(2, 3, 4)
        f = space.function(37)
        fp = q_apply_affine(f, random_affine(4, random.Random(5)))
        runs = [
            equivalent(f, fp, sub123, iter_budget=128, rng=random.Random(11))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_s_equals_t_pairs(self, sub224, oracle335):
        rng = random.Random(6)
        space = oracle335.space
        for _ in range(30):
            f = space.function(rng.randrange(1 << space.dim))
            g = space.function(rng.randrange(1 << space.dim))
            out = equivalent(f, g, sub224, iter_budget=4096, rng=rng)
            same = class_of(f, oracle335) == class_of(g, oracle335)
            if out.verdict == EQUIV:
                assert same and q_apply_affine(f, out.witness) == g
            elif out.verdict == NOT_EQUIV:
                assert not same

    def test_window_requirement(self, sub123):
        f = qf("ab", 2, 4, 4)
        with pytest.raises(ValueError):
            equivalent(f, f, sub123)


# Full outcomes of seeded calls, recorded before the search moved to numpy
# kernels: ((s, t, m), f key, fp key, budget, rng seed, verdict,
# witness (rows, translation) or None, candidates_tested, budget_used).
# Any change to the candidate tree or to the order in which it is visited
# shows up here.
GOLDEN = [
    ((2, 3, 4), 663, 308, 64, 666, 'Equiv', ((7, 5, 1, 8), 6), 1, 0),
    ((2, 3, 4), 98, 668, 4096, 642, 'Equiv', ((13, 11, 1, 9), 15), 1, 0),
    ((2, 3, 4), 875, 226, 4, 715, 'Equiv', ((7, 14, 15, 4), 0), 1, 0),
    ((2, 3, 4), 421, 1016, 4096, 544, 'NotEquiv', None, 0, 0),
    ((2, 3, 4), 177, 22, 4, 28, 'Undefined', None, 5, 5),
    ((2, 3, 4), 20, 50, 0, 0, 'Undefined', None, 1, 1),
    ((2, 3, 5), 102712, 805763, 512, 684, 'Equiv', ((26, 3, 6, 9, 7), 5), 150, 149),
    ((2, 3, 5), 60841, 838948, 512, 562, 'Equiv', ((30, 23, 28, 25, 24), 16), 54, 53),
    ((2, 3, 5), 827049, 625443, 64, 437, 'Equiv', ((29, 12, 10, 16, 14), 21), 14, 13),
    ((2, 3, 5), 366362, 754005, 16, 588, 'Equiv', ((18, 11, 20, 24, 2), 6), 6, 5),
    ((2, 3, 5), 451267, 326313, 4096, 746, 'Equiv', ((21, 25, 6, 30, 9), 7), 1, 0),
    ((2, 3, 5), 313247, 1037276, 4096, 334, 'NotEquiv', None, 0, 0),
    ((2, 3, 5), 816875, 173224, 512, 142, 'Undefined', None, 513, 513),
    ((2, 3, 5), 614588, 662409, 16, 187, 'Undefined', None, 17, 17),
    ((2, 3, 5), 187615, 93957, 0, 275, 'Undefined', None, 1, 1),
    ((3, 3, 5), 761, 245, 64, 561, 'Equiv', ((15, 14, 13, 21, 10), 18), 53, 52),
    ((3, 3, 5), 436, 633, 4096, 742, 'Equiv', ((1, 29, 20, 5, 22), 27), 51, 50),
    ((3, 3, 5), 718, 293, 512, 281, 'Equiv', ((15, 29, 25, 20, 30), 26), 33, 32),
    ((3, 3, 5), 990, 206, 64, 976, 'Equiv', ((2, 16, 15, 19, 7), 27), 7, 6),
    ((3, 3, 5), 346, 553, 4, 389, 'Equiv', ((16, 22, 7, 19, 26), 14), 1, 0),
    ((3, 3, 5), 794, 176, 4096, 635, 'NotEquiv', None, 0, 0),
    ((3, 3, 5), 604, 794, 64, 55, 'Undefined', None, 65, 65),
    ((3, 3, 5), 869, 758, 4, 504, 'Undefined', None, 5, 5),
    ((3, 3, 5), 802, 738, 0, 271, 'Undefined', None, 1, 1),
    ((1, 2, 7), 1387520, 98591728, 1024, 914, 'Equiv', ((64, 20, 123, 29, 44, 119, 90), 56), 1, 0),
    ((1, 2, 7), 176423081, 133592472, 64, 151, 'Equiv', ((24, 56, 66, 83, 35, 26, 37), 93), 22, 21),
    ((1, 2, 7), 2622274, 121680764, 1024, 280, 'Equiv', ((27, 73, 30, 91, 25, 17, 124), 7), 1, 0),
    ((1, 2, 7), 169846394, 113265471, 64, 542, 'Equiv', ((87, 24, 52, 109, 95, 43, 4), 99), 43, 42),
    ((1, 2, 7), 169846394, 8452811, 1024, 175, 'Equiv', ((111, 46, 55, 104, 17, 32, 2), 127), 15, 14),
    ((1, 2, 7), 7717064, 20375981, 64, 872, 'Undefined', None, 65, 65),
    ((1, 2, 7), 222482741, 16935851, 64, 892, 'NotEquiv', None, 0, 0),
    ((1, 2, 7), 52497570, 65411303, 4, 102, 'Undefined', None, 5, 5),
]


@pytest.fixture(scope="module")
def golden_subs(sub123, sub124, sub224):
    return {(1, 2, 3): sub123, (1, 2, 4): sub124, (2, 2, 4): sub224,
            (0, 1, 6): orbit_enumerate(0, 1, 6)}


class TestGolden:
    @pytest.mark.parametrize("params", [(2, 3, 4), (2, 3, 5), (3, 3, 5), (1, 2, 7)])
    def test_pinned_outcomes(self, params, golden_subs):
        s, t, m = params
        space = quotient_space(s, t, m)
        sub = golden_subs[(max(s - 1, 0), t - 1, m - 1)]
        cases = [case for case in GOLDEN if case[0] == params]
        assert {case[5] for case in cases} == {EQUIV, NOT_EQUIV, UNDEFINED}
        for _, fk, gk, budget, seed, verdict, witness, tested, used in cases:
            out = equivalent(
                space.function(fk), space.function(gk), sub,
                iter_budget=budget, rng=random.Random(seed),
            )
            got = None if out.witness is None else (out.witness.rows, out.witness.trans)
            assert (out.verdict, got, out.candidates_tested, out.budget_used) == (
                verdict, witness, tested, used,
            ), (fk, gk, budget, seed)


class TestSiblingMasks:
    @pytest.mark.parametrize("params", [(2, 3, 5), (1, 2, 7)])
    def test_equal_admissible_mask_at_every_node(self, params, golden_subs, monkeypatch):
        # every child mask the search reads equals admissible_mask on the
        # extended image span, and the pinned outcomes do not move
        from rmcover import equivalence

        computed = equivalence.sibling_masks
        nodes = []

        def checked(images, i, fh_f, fh_fp, ys):
            masks = computed(images, i, fh_f, fh_fp, ys)
            half = 1 << (i - 1)
            for y, mask in zip(ys.tolist(), masks):
                extended = images.copy()
                extended[half : 2 * half] = images[:half] ^ y
                assert mask.tolist() == admissible_mask(extended, i + 1, fh_f, fh_fp).tolist()
                nodes.append(i + 1)
            return masks

        monkeypatch.setattr(equivalence, "sibling_masks", checked)
        s, t, m = params
        space = quotient_space(s, t, m)
        sub = golden_subs[(max(s - 1, 0), t - 1, m - 1)]
        for _, fk, gk, budget, seed, verdict, witness, tested, used in [
            case for case in GOLDEN if case[0] == params
        ]:
            out = equivalent(
                space.function(fk), space.function(gk), sub,
                iter_budget=budget, rng=random.Random(seed),
            )
            got = None if out.witness is None else (out.witness.rows, out.witness.trans)
            assert (out.verdict, got, out.candidates_tested, out.budget_used) == (
                verdict, witness, tested, used,
            )
        assert set(nodes) == set(range(2, m + 1))
