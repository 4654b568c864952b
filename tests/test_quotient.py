import random

import pytest

from rmcover import boolfun as bf
from rmcover.boolfun import AnfPolynomial, anf_from_string, apply_affine, to_anf
from rmcover.group import compose, identity, random_affine
from rmcover.quotient import (
    action_matrix,
    compose_decomposition,
    decompose,
    delta_membership,
    delta_space_basis,
    parse_quotient,
    project,
    q_apply_affine,
    quotient_space,
)


def qf(text, s, t, m):
    space = quotient_space(s, t, m)
    return space.function(space.key_from_anf(anf_from_string(text, m).coeffs))


class TestProject:
    def test_drops_low_degrees(self):
        p = anf_from_string("abc+a+1", 3)
        out = project(p, 2, 3)
        assert repr(out) == "(2,3,3):abc"

    def test_zero(self):
        assert project(AnfPolynomial(3, 0), 2, 3).key == 0

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            project(anf_from_string("abcd", 4), 2, 3)

    def test_idempotent(self):
        rng = random.Random(0)
        space = quotient_space(2, 3, 4)
        for _ in range(30):
            f = space.function(rng.randrange(1 << space.dim))
            again = project(AnfPolynomial(4, f.anf), 2, 3)
            assert again == f

    def test_zero_window_when_s_exceeds_t(self):
        space = quotient_space(4, 3, 4)
        assert space.dim == 0
        assert space.zero().key == 0


class TestAction:
    def test_identity(self):
        f = qf("ab+bc", 2, 2, 3)
        assert q_apply_affine(f, identity(3)) == f

    def test_swap_fixes_product(self):
        f = qf("ab", 2, 2, 2)
        swap = compose(identity(2), identity(2))
        swap = swap.__class__(2, (0b10, 0b01), 0)
        assert q_apply_affine(f, swap) == f

    def test_action_compatibility(self):
        rng = random.Random(1)
        space = quotient_space(2, 3, 4)
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            s1, s2 = random_affine(4, rng), random_affine(4, rng)
            assert q_apply_affine(q_apply_affine(f, s1), s2) == q_apply_affine(
                f, compose(s1, s2)
            )

    def test_action_exhaustive_small(self):
        # full group action axioms on the window (2,2,3)
        from rmcover.group import agl_generators

        gens = agl_generators(3)
        space = quotient_space(2, 2, 3)
        for key in range(1 << space.dim):
            f = space.function(key)
            for g1 in gens:
                for g2 in gens:
                    assert q_apply_affine(q_apply_affine(f, g1), g2) == q_apply_affine(
                        f, compose(g1, g2)
                    )

    def test_action_exhaustive_full_group_m2(self):
        # all of AGL(2,2) against all of the (1,2,2) window
        from rmcover.group import AffineTransformation, gf2_rank

        elems = [
            AffineTransformation(2, (p, q), a)
            for p in range(1, 4)
            for q in range(1, 4)
            if gf2_rank((p, q)) == 2
            for a in range(4)
        ]
        assert len(elems) == 24
        space = quotient_space(1, 2, 2)
        for key in range(1 << space.dim):
            f = space.function(key)
            assert q_apply_affine(f, identity(2)) == f
            for g1 in elems:
                for g2 in elems:
                    assert q_apply_affine(
                        q_apply_affine(f, g1), g2
                    ) == q_apply_affine(f, compose(g1, g2))

    def test_matches_lift_action(self):
        rng = random.Random(2)
        space = quotient_space(2, 3, 5)
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(5, rng)
            direct = q_apply_affine(f, s)
            via_lift = project(to_anf(apply_affine(f.lift(), s)), 2, 3)
            assert direct == via_lift


def decompose_reference(qf):
    """(g key, h key) of f = x_m*g + h, monomial by monomial through the ANF."""
    top = 1 << (qf.m - 1)
    g_space = quotient_space(qf.s - 1, qf.t - 1, qf.m - 1)
    h_space = quotient_space(qf.s, qf.t, qf.m - 1)
    g_anf = 0
    h_anf = 0
    anf = qf.anf
    while anf:
        low = anf & -anf
        mask = low.bit_length() - 1
        if mask & top:
            g_anf |= 1 << (mask ^ top)
        else:
            h_anf |= 1 << mask
        anf ^= low
    return g_space.key_from_anf(g_anf), h_space.key_from_anf(h_anf)


def compose_reference(g, h):
    """Key of x_m*g + h, monomial by monomial through the ANF."""
    m = h.m + 1
    top = 1 << (m - 1)
    anf = h.anf
    g_anf = g.anf
    while g_anf:
        low = g_anf & -g_anf
        anf |= 1 << ((low.bit_length() - 1) | top)
        g_anf ^= low
    return quotient_space(h.s, h.t, m).key_from_anf(anf)


# every window the suite enumerates or draws from, s = 0 and s = t included
SUITE_WINDOWS = [
    (0, 1, 2), (0, 1, 6), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6),
    (3, 3, 3), (3, 3, 4), (3, 3, 5), (3, 3, 8), (3, 4, 6), (4, 3, 4), (5, 5, 7),
    (5, 6, 8),
]


@pytest.mark.parametrize("params", SUITE_WINDOWS)
def test_action_matrix_matches_scalar_action(params):
    # the empty window (4,3,4) gives an empty matrix
    space = quotient_space(*params)
    rng = random.Random(space.dim)
    for _ in range(3):
        s = random_affine(space.m, rng)
        want = [q_apply_affine(space.function(1 << j), s).key for j in range(space.dim)]
        assert action_matrix(space, s) == want


class TestDecomposition:
    def test_example(self):
        f = qf("abc+ab", 2, 3, 3)
        d = decompose(f)
        assert repr(d.g) == "(1,2,2):ab"
        assert repr(d.h) == "(2,3,2):ab"

    def test_zero(self):
        d = decompose(quotient_space(2, 3, 3).zero())
        assert d.g.key == 0 and d.h.key == 0

    def test_round_trip(self):
        rng = random.Random(5)
        for s, t, m in ((2, 3, 4), (1, 2, 3), (3, 3, 5)):
            space = quotient_space(s, t, m)
            for _ in range(30):
                f = space.function(rng.randrange(1 << space.dim))
                d = decompose(f)
                assert compose_decomposition(d.g, d.h) == f

    @pytest.mark.parametrize("params", SUITE_WINDOWS)
    def test_key_split_matches_reference(self, params):
        # all keys of the small windows, 200 random keys of the others
        space = quotient_space(*params)
        if space.dim <= 10:
            keys = range(1 << space.dim)
        else:
            rng = random.Random(space.dim)
            keys = [rng.getrandbits(space.dim) for _ in range(200)]
        for key in keys:
            f = space.function(key)
            d = decompose(f)
            assert (d.g.key, d.h.key) == decompose_reference(f)
            assert d.h.space.params == (space.s, space.t, space.m - 1)
            assert d.g.space.params == (max(space.s - 1, 0), space.t - 1, space.m - 1)
            assert compose_reference(d.g, d.h) == key
            assert compose_decomposition(d.g, d.h) == f

    def test_parameter_mismatch(self):
        g = quotient_space(1, 2, 3).zero()
        h = quotient_space(3, 3, 3).zero()
        with pytest.raises(ValueError):
            compose_decomposition(g, h)

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            decompose(quotient_space(1, 1, 1).function(1))


class TestDelta:
    def test_basis_of_triple_product(self):
        f = qf("abc", 2, 3, 3)
        basis = delta_space_basis(f)
        assert [repr(b) for b in basis] == [
            "(2,2,3):bc",
            "(2,2,3):ac",
            "(2,2,3):ab",
        ]
        from rmcover.group import gf2_rank

        assert gf2_rank([b.key for b in basis]) == 3

    def test_zero_function(self):
        basis = delta_space_basis(quotient_space(2, 3, 4).zero())
        assert all(b.key == 0 for b in basis)

    def test_window_requirement(self):
        with pytest.raises(ValueError):
            delta_space_basis(qf("abc", 3, 3, 3))

    def test_span_contains_all_derivatives(self):
        rng = random.Random(6)
        for m in (4, 5):
            space = quotient_space(2, 3, m)
            target = quotient_space(2, 2, m)
            for _ in range(10):
                f = space.function(rng.randrange(1 << space.dim))
                for v in range(1 << m):
                    der = bf.derivative(f.lift(), v)
                    cand = target.function(
                        target.key_from_anf(bf.mobius_transform(der.tt, m))
                    )
                    a = delta_membership(f, cand)
                    assert a is not None
                    back = bf.derivative(f.lift(), a)
                    assert target.key_from_anf(
                        bf.mobius_transform(back.tt, m)
                    ) == cand.key

    def test_membership_constructed(self):
        f = qf("abc+abd", 2, 3, 4)
        basis = delta_space_basis(f)
        # the derivative along direction 0b1010 = e_2 + e_4
        assert delta_membership(f, basis[1] ^ basis[3]) is not None

    def test_membership_zero(self):
        f = qf("abc", 2, 3, 4)
        assert delta_membership(f, quotient_space(2, 2, 4).zero()) == 0

    def test_membership_with_kernel_matches_reference(self):
        # no cubic monomial holds the last variable, so the derivative along
        # it vanishes and several directions solve each member
        rng = random.Random(12)
        for m in (4, 5):
            space = quotient_space(2, 3, m)
            target = quotient_space(2, 2, m)
            allowed = [
                j for j, mask in enumerate(space.masks)
                if mask.bit_count() == 2 or not mask >> (m - 1)
            ]
            for _ in range(6):
                f = space.function(sum(1 << j for j in allowed if rng.random() < 0.4))
                keys = [b.key for b in delta_space_basis(f)]
                assert keys[-1] == 0
                # greedily independent unit directions and the span they reach
                span = {0: 0}
                for j, k in enumerate(keys):
                    if k not in span:
                        span.update({x ^ k: d | (1 << j) for x, d in span.items()})
                for tkey in range(1 << target.dim):
                    want = span.get(tkey)
                    assert delta_membership(f, target.function(tkey)) == want

    def test_membership_rejects_outside(self):
        # degree-t component present: immediate rejection
        f = qf("abc", 2, 3, 4)
        cand = qf("abd", 2, 3, 4)
        assert delta_membership(f, cand) is None
        # exhaustive cross-check: abd is not among the 16 derivatives
        target = quotient_space(2, 2, 4)
        ders = {
            target.key_from_anf(
                bf.mobius_transform(bf.derivative(f.lift(), v).tt, 4)
            )
            for v in range(16)
        }
        assert target.key_from_anf(cand.anf) == 0  # degree-3 part invisible there
        assert 0 in ders

    def test_dim_bound(self):
        from rmcover.group import gf2_rank

        rng = random.Random(7)
        for m in (3, 4, 5):
            space = quotient_space(m - 1, m, m)
            for _ in range(20):
                f = space.function(rng.randrange(1 << space.dim))
                basis = delta_space_basis(f)
                assert gf2_rank([b.key for b in basis]) <= m


class TestSerialization:
    def test_repr_round_trip(self):
        rng = random.Random(8)
        for s, t, m in ((2, 3, 4), (5, 5, 7)):
            space = quotient_space(s, t, m)
            for _ in range(20):
                f = space.function(rng.randrange(1 << space.dim))
                assert parse_quotient(repr(f)) == f

    def test_rejects_outside_window(self):
        with pytest.raises(ValueError):
            parse_quotient("(2,3,3):a")
