import math
import random

import numpy as np
import pytest

from rmcover.boolfun import (
    AnfPolynomial,
    BooleanFunction,
    anf_degree,
    anf_from_string,
    anf_to_string,
    apply_affine,
    degree,
    derivative,
    dirac,
    from_anf,
    is_periodic,
    mobius,
    mobius_transform,
    parse_function,
    restrict,
    to_anf,
    translate_truth_table,
    tt_from_hex,
    tt_to_hex,
    weight,
)
from rmcover.group import compose, random_affine


def anf(text, m):
    return anf_from_string(text, m)


def fn(text, m):
    return parse_function(text, m)


class TestMobius:
    def test_zero_vector(self):
        assert mobius_transform(0, 3) == 0

    def test_single_monomial(self):
        # ANF = x1x2 on m=2: only the point (1,1) evaluates to 1
        assert mobius_transform(1 << 0b11, 2) == 1 << 0b11

    def test_constant_one(self):
        assert mobius_transform(0b1111, 2) == 1

    def test_involution_exhaustive_small(self):
        for m in (1, 2, 3, 4):
            for v in range(1 << (1 << m)) if m <= 3 else []:
                assert mobius_transform(mobius_transform(v, m), m) == v
        # m = 4: all 2^16 vectors
        for v in range(1 << 16):
            assert mobius_transform(mobius_transform(v, 4), 4) == v

    def test_involution_randomized(self):
        rng = random.Random(0)
        for m in range(5, 11):
            for _ in range(50):
                v = rng.getrandbits(1 << m)
                assert mobius_transform(mobius_transform(v, m), m) == v

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mobius_transform(1 << 16, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_array_columns_match_scalar(self, dtype):
        rng = np.random.default_rng(3)
        for m in range(1, 11):
            tables = rng.integers(0, 2, size=(1 << m, 3)).astype(dtype)
            before = tables.copy()
            out = mobius(tables)
            assert out.dtype == dtype and np.array_equal(tables, before)
            for c in range(3):
                column = [int(b) << x for x, b in enumerate(tables[:, c])]
                want = mobius_transform(sum(column), m)
                assert out[:, c].tolist() == [(want >> x) & 1 for x in range(1 << m)]
                assert np.array_equal(mobius(tables[:, c]), out[:, c])

    def test_array_length_not_power_of_two(self):
        for values in ([1, 0, 1], [], np.zeros((6, 2), dtype=np.int8)):
            with pytest.raises(ValueError):
                mobius(values)


class TestWeightDegree:
    def test_weight_zero(self):
        assert weight(BooleanFunction(3, 0)) == 0

    def test_weight_dirac(self):
        for m in (1, 3, 6):
            assert weight(dirac(5 % (1 << m), m)) == 1

    def test_weight_coordinate(self):
        assert weight(fn("a", 3)) == 4

    def test_weight_parity(self):
        rng = random.Random(1)
        for _ in range(100):
            f = BooleanFunction(4, rng.getrandbits(16))
            g = BooleanFunction(4, rng.getrandbits(16))
            assert (weight(f ^ g) - weight(f) - weight(g)) % 2 == 0

    def test_dirac_degree(self):
        assert anf_degree(0) == -math.inf
        assert anf_degree(anf("ab+c", 3).coeffs) == 2
        for m in (2, 4):
            p = to_anf(dirac(0, m))
            assert anf_degree(p.coeffs) == m
            assert p.coeffs & 1  # the constant monomial: valuation 0


class TestDirac:
    def test_corner_point(self):
        assert anf_to_string(to_anf(dirac(0b11, 2))) == "ab"

    def test_origin_expansion(self):
        assert to_anf(dirac(0, 2)).coeffs == 0b1111

    def test_weight_one_everywhere(self):
        for m in (1, 2, 5):
            for a in range(1 << m):
                assert weight(dirac(a, m)) == 1


class TestApplyAffine:
    def test_identity(self):
        from rmcover.group import identity

        f = fn("ab+c", 3)
        assert apply_affine(f, identity(3)) == f

    def test_dirac_translation(self):
        from rmcover.group import translation

        for a in range(8):
            assert apply_affine(dirac(0, 3), translation(3, a)) == dirac(a, 3)

    def test_composition_matches_pointwise(self):
        rng = random.Random(2)
        for _ in range(25):
            f = BooleanFunction(4, rng.getrandbits(16))
            s1 = random_affine(4, rng)
            s2 = random_affine(4, rng)
            via_two = apply_affine(apply_affine(f, s1), s2)
            via_one = apply_affine(f, compose(s1, s2))
            assert via_two == via_one
            for x in range(16):
                assert via_two.value(x) == f.value(s1.apply(s2.apply(x)))

    def test_preserves_weight_and_degree(self):
        rng = random.Random(3)
        for m in (3, 4, 5, 6):
            for _ in range(10):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                g = apply_affine(f, random_affine(m, rng))
                assert weight(g) == weight(f)
                assert degree(g) == degree(f)

    def test_dimension_mismatch(self):
        from rmcover.group import identity

        with pytest.raises(ValueError):
            apply_affine(fn("a", 2), identity(3))


class TestDerivative:
    def test_zero_direction(self):
        f = fn("ab+c", 3)
        assert derivative(f, 0).tt == 0

    def test_product_rule_example(self):
        assert derivative(fn("ab", 2), 0b01) == fn("b", 2)

    def test_last_variable_splits_off_factor(self):
        # f = x3*g + h with g = x1+x2, h = x1x2: derivative along e3 is g
        f = fn("ac+bc+ab", 3)
        assert derivative(f, 0b100) == fn("a+b", 3)

    def test_degree_drop(self):
        rng = random.Random(4)
        for _ in range(50):
            f = BooleanFunction(4, rng.getrandbits(16))
            if anf_degree(to_anf(f).coeffs) < 1:
                continue
            for v in range(1, 16):
                assert degree(derivative(f, v)) <= degree(f) - 1

    def test_cocycle_degree_drop(self):
        # der(f,u+v) + der(f,u) + der(f,v) always loses two degrees
        rng = random.Random(5)
        for m in (3, 4):
            for _ in range(20):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                d = degree(f)
                for u in range(1 << m):
                    for v in range(1 << m):
                        mix = (
                            derivative(f, u ^ v) ^ derivative(f, u) ^ derivative(f, v)
                        )
                        assert degree(mix) <= max(d - 2, -math.inf)

    def test_cocycle_randomized_larger(self):
        rng = random.Random(6)
        for m in (6, 8):
            for _ in range(10):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                d = degree(f)
                u = rng.getrandbits(m)
                v = rng.getrandbits(m)
                mix = derivative(f, u ^ v) ^ derivative(f, u) ^ derivative(f, v)
                assert degree(mix) <= max(d - 2, -math.inf)


class TestPeriodicRestrict:
    def test_zero_direction_periodic(self):
        rng = random.Random(7)
        f = BooleanFunction(3, rng.getrandbits(8))
        assert is_periodic(f, 0)

    def test_linear_form_periodicity(self):
        f = fn("a+b", 2)
        assert is_periodic(f, 0b11)
        assert not is_periodic(fn("a", 2), 0b11)

    def test_restrict_constant(self):
        one = BooleanFunction(3, 0xFF)
        r = restrict(one, 0b100)
        assert r == BooleanFunction(2, 0xF)

    def test_restrict_diagonal_direction(self):
        # f = x1+x2, v = (1,1): pivot is x2, supplementary spans e1
        assert restrict(fn("a+b", 2), 0b11) == fn("a", 1)

    def test_restrict_derivative(self):
        f = derivative(fn("abc", 3), 0b100)
        assert restrict(f, 0b100) == fn("ab", 2)

    def test_restrict_errors(self):
        f = fn("a", 2)
        with pytest.raises(ValueError):
            restrict(f, 0)
        with pytest.raises(ValueError):
            restrict(f, 0b11)  # not periodic

    def test_translate_involution(self):
        rng = random.Random(8)
        for _ in range(30):
            tt = rng.getrandbits(32)
            v = rng.getrandbits(5)
            assert translate_truth_table(translate_truth_table(tt, v, 5), v, 5) == tt

    def test_restriction_class_well_defined(self):
        # restrictions of equivalent periodic functions are affine equivalent,
        # checked against a brute-force orbit over all m-1 variable functions
        from rmcover.group import agl_generators

        rng = random.Random(9)
        m = 3
        gens = agl_generators(m - 1)
        for _ in range(10):
            base = BooleanFunction(m, rng.getrandbits(1 << m))
            v = rng.randrange(1, 1 << m)
            f = derivative(base, v)  # always v-periodic
            s = random_affine(m, rng)
            g = apply_affine(f, s)
            from rmcover.group import invert_rows, matvec

            w = matvec(invert_rows(s.rows, m), v)
            if w == 0:
                continue
            rf = restrict(f, v)
            rg = restrict(g, w)
            orbit = {rf.tt}
            frontier = [rf]
            while frontier:
                cur = frontier.pop()
                for gen in gens:
                    nxt = apply_affine(cur, gen)
                    if nxt.tt not in orbit:
                        orbit.add(nxt.tt)
                        frontier.append(nxt)
            assert rg.tt in orbit


class TestSerialization:
    def test_hex_round_trip(self):
        rng = random.Random(10)
        for m in (1, 2, 4, 6):
            for _ in range(20):
                f = BooleanFunction(m, rng.getrandbits(1 << m))
                assert tt_from_hex(tt_to_hex(f), m) == f

    def test_hex_width(self):
        assert tt_to_hex(BooleanFunction(4, 1)) == "0001"
        with pytest.raises(ValueError):
            tt_from_hex("001", 4)

    def test_anf_round_trip(self):
        rng = random.Random(11)
        for m in (1, 3, 5, 8):
            for _ in range(20):
                p = AnfPolynomial(m, rng.getrandbits(1 << m))
                assert anf_from_string(anf_to_string(p), m) == p

    def test_anf_notation(self):
        p = anf_from_string("abcef+acdef", 8)
        f = from_anf(p)
        assert degree(f) == 5
        assert anf_to_string(to_anf(f)) == "abcef+acdef"

    def test_anf_rejects_bad_variables(self):
        with pytest.raises(ValueError):
            anf_from_string("az", 8)
        with pytest.raises(ValueError):
            anf_from_string("aab", 8)

    def test_prefixed_parsing(self):
        f = fn("ab+cd", 4)
        assert parse_function("hex:" + tt_to_hex(f), 4) == f
        assert parse_function("anf:ab+cd", 4) == f

    def test_max_variable_count_boundary(self):
        rng = random.Random(12)
        tt = rng.getrandbits(1 << 16)
        f = BooleanFunction(16, tt)
        assert mobius_transform(mobius_transform(tt, 16), 16) == tt
        assert tt_from_hex(tt_to_hex(f), 16) == f
        with pytest.raises(ValueError):
            BooleanFunction(17, 0)
        with pytest.raises(ValueError):
            dirac(0, 0)
