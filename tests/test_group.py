import random
from collections import deque

import numpy as np
import pytest

from rmcover import (
    AffineTransformation,
    SingularMatrixError,
    agl_generators,
    agl_order,
    apply_affine,
    compose,
    derivative,
    identity,
    invert,
    random_affine,
    transvection,
)
from rmcover.boolfun import BooleanFunction
from rmcover.group import (
    gf2_rank,
    invert_rows,
    mat_mul,
    matvec,
    subset_tables,
    transpose_rows,
    xor_lookup,
)
from rmcover.quotient import apply_key


def closure(gens, m, limit=None):
    ident = identity(m)
    seen = {(ident.rows, ident.trans)}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = compose(cur, g)
            key = (nxt.rows, nxt.trans)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
                if limit and len(seen) > limit:
                    raise AssertionError("closure exceeded limit")
    return seen


def group_indices(keys, width, groups):
    """Each group's index array: the keys' bits g*width ... g*width + width-1."""
    mask = (1 << width) - 1
    return [np.array([key >> (g * width) & mask for key in keys]) for g in range(groups)]


class TestSubsetTables:
    # the Four Russians kernel against apply_key, the scalar path for one key

    @pytest.mark.parametrize("width", range(1, 9))
    def test_scalar_images(self, width):
        rng = random.Random(width)
        # no rows, a short group, whole groups and a short last group
        for n in (0, 1, width, 3 * width, 3 * width + 1, 4 * width - 1):
            images = [rng.getrandbits(63) for _ in range(n)]
            keys = [rng.getrandbits(n) for _ in range(50)]
            tables = subset_tables(np.array(images, dtype=np.int64), width)
            assert tables.shape == (max(1, -(-n // width)), 1 << width)
            got = xor_lookup(tables, group_indices(keys, width, len(tables)))
            assert got.tolist() == [apply_key(images, key) for key in keys], n

    @pytest.mark.parametrize("width", range(1, 9))
    def test_row_images(self, width):
        # each input bit maps to a row of outputs, as in derivative_tables
        rng = random.Random(10 + width)
        for n in (0, 2 * width - 1, 2 * width):
            images = [[rng.getrandbits(63) for _ in range(5)] for _ in range(n)]
            keys = [rng.getrandbits(n) for _ in range(30)]
            rows = np.array(images, dtype=np.int64).reshape(n, 5)
            tables = subset_tables(rows, width)
            got = xor_lookup(tables, group_indices(keys, width, len(tables)))
            want = [[apply_key([im[c] for im in images], key) for c in range(5)] for key in keys]
            assert got.tolist() == want, n

    @pytest.mark.parametrize("width", [2, 3, 8])
    def test_missing_rows_of_last_group_are_zero(self, width):
        # the last group holds one row: its other index bits change nothing
        rng = random.Random(20 + width)
        images = [rng.getrandbits(63) for _ in range(2 * width + 1)]
        keys = [rng.getrandbits(len(images)) for _ in range(40)]
        tables = subset_tables(np.array(images, dtype=np.int64), width)
        indices = group_indices(keys, width, len(tables))
        indices[-1] |= [rng.getrandbits(width) & ~1 for _ in keys]
        assert xor_lookup(tables, indices).tolist() == [apply_key(images, k) for k in keys]

    def test_wide_keys_read_as_bytes(self):
        # keys of 100 bits do not fit in int64: each byte indexes its group
        rng = random.Random(7)
        images = [rng.getrandbits(63) for _ in range(100)]
        keys = [rng.getrandbits(100) for _ in range(64)]
        tables = subset_tables(np.array(images, dtype=np.int64), 8)
        raw = b"".join(key.to_bytes(len(tables), "little") for key in keys)
        parts = np.frombuffer(raw, dtype=np.uint8).reshape(len(keys), len(tables))
        got = xor_lookup(tables, parts.T)
        assert got.tolist() == [apply_key(images, key) for key in keys]

    def test_lookup_into_out(self):
        rng = random.Random(8)
        images = [rng.getrandbits(63) for _ in range(19)]
        keys = [rng.getrandbits(19) for _ in range(40)]
        tables = subset_tables(np.array(images, dtype=np.int64), 4)
        start = [rng.getrandbits(63) for _ in keys]
        out = np.array(start, dtype=np.int64)
        got = xor_lookup(tables, group_indices(keys, 4, len(tables)), out)
        assert got is out
        assert got.tolist() == [s ^ apply_key(images, k) for s, k in zip(start, keys)]


class TestMatrices:
    def test_rank_and_inverse(self):
        rng = random.Random(0)
        for m in (2, 3, 5):
            for _ in range(20):
                s = random_affine(m, rng)
                inv = invert_rows(s.rows, m)
                assert mat_mul(s.rows, inv) == tuple(1 << i for i in range(m))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert_rows((0b01, 0b01), 2)
        with pytest.raises(SingularMatrixError):
            AffineTransformation(2, (0b01, 0b01), 0)

    def test_transpose(self):
        rows = (0b110, 0b001, 0b011)
        assert transpose_rows(transpose_rows(rows, 3), 3) == rows


class TestComposeInvert:
    def test_identity_neutral(self):
        rng = random.Random(1)
        s = random_affine(3, rng)
        assert compose(identity(3), s) == s
        assert compose(s, identity(3)) == s

    def test_inverse_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            s = random_affine(4, rng)
            assert compose(s, invert(s)) == identity(4)
            assert compose(invert(s), s) == identity(4)

    def test_pointwise_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            s1, s2 = random_affine(4, rng), random_affine(4, rng)
            c = compose(s1, s2)
            for x in range(16):
                assert c.apply(x) == s1.apply(s2.apply(x))

    def test_group_axioms_exhaustive_m2(self):
        elems = [
            AffineTransformation(2, rows, a)
            for rows in [
                (p, q)
                for p in range(1, 4)
                for q in range(1, 4)
                if gf2_rank((p, q)) == 2
            ]
            for a in range(4)
        ]
        assert len(elems) == 24
        for s1 in elems:
            for s2 in elems:
                c = compose(s1, s2)
                for x in range(4):
                    assert c.apply(x) == s1.apply(s2.apply(x))
        ident = identity(2)
        for s in elems:
            assert compose(s, invert(s)) == ident

    def test_products_equal_validated_construction(self):
        # compose and invert skip the rank check; their results must be the
        # same values as maps built through the validating constructor
        rng = random.Random(11)
        for m in (3, 4, 5, 6):
            for _ in range(10):
                a, b = random_affine(m, rng), random_affine(m, rng)
                for out in (compose(a, b), invert(a)):
                    built = AffineTransformation(m, out.rows, out.trans)
                    assert out == built
                    assert hash(out) == hash(built)

    def test_constructor_still_rejects_singular(self):
        for m in (3, 4, 5, 6):
            rows = tuple(1 << i for i in range(m - 1)) + (1,)
            with pytest.raises(SingularMatrixError):
                AffineTransformation(m, rows, 0)

    def test_associativity_randomized(self):
        rng = random.Random(4)
        for m in (3, 4, 5, 6):
            for _ in range(10):
                a, b, c = (random_affine(m, rng) for _ in range(3))
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestRandomAffine:
    def test_seed_reproducibility(self):
        s1 = random_affine(5, random.Random(99))
        s2 = random_affine(5, random.Random(99))
        assert s1 == s2

    def test_always_invertible(self):
        rng = random.Random(5)
        for _ in range(10000):
            s = random_affine(3, rng)
            assert gf2_rank(s.rows) == 3

    def test_uniform_over_gl22(self):
        rng = random.Random(6)
        counts = {}
        n = 10000
        for _ in range(n):
            s = random_affine(2, rng)
            counts[s.rows] = counts.get(s.rows, 0) + 1
        assert len(counts) == 6
        expect = n / 6
        sigma = (n * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - expect) <= 5 * sigma


class TestTransvection:
    def test_zero_form_is_identity(self):
        assert transvection(0b01, 0, 2) == identity(2)

    def test_explicit_map(self):
        # v = e1, theta = x2: adds e1 exactly when x2 is set
        t = transvection(0b01, 0b10, 2)
        assert t.apply(0b11) == 0b10
        assert t.apply(0b01) == 0b01

    def test_involution(self):
        rng = random.Random(7)
        for m in (3, 5):
            for _ in range(20):
                v = rng.randrange(1, 1 << m)
                theta = rng.getrandbits(m)
                if (theta & v).bit_count() & 1:
                    theta ^= v & -v
                t = transvection(v, theta, m)
                assert compose(t, t) == identity(m)

    def test_rejects_theta_v_one(self):
        with pytest.raises(ValueError):
            transvection(0b01, 0b01, 2)

    def test_fixes_periodic_functions(self):
        rng = random.Random(8)
        m = 4
        for _ in range(20):
            v = rng.randrange(1, 1 << m)
            f = derivative(BooleanFunction(m, rng.getrandbits(1 << m)), v)
            theta = rng.getrandbits(m)
            if (theta & v).bit_count() & 1:
                theta ^= v & -v
            t = transvection(v, theta, m)
            assert apply_affine(f, t) == f


class TestGenerators:
    def test_closure_m2(self):
        assert len(closure(agl_generators(2), 2)) == 24

    def test_closure_m3(self):
        assert len(closure(agl_generators(3), 3)) == 1344

    def test_closure_m1(self):
        assert len(closure(agl_generators(1), 1)) == 2

    def test_all_invertible(self):
        for m in (1, 2, 3, 6):
            for g in agl_generators(m):
                assert gf2_rank(g.rows) == m

    def test_order_formula(self):
        assert agl_order(2) == 24
        assert agl_order(3) == 1344
