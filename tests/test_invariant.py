import random

import numpy as np
import pytest

from rmcover import (
    anf_from_string,
    class_map,
    fourier_map,
    j_hat_signature,
    j_signature,
    orbit_enumerate,
    q_apply_affine,
    quotient_space,
    random_affine,
    wht,
)
from rmcover.group import matvec, transpose_rows
from rmcover.invariant import ClassMap


def qf(text, s, t, m):
    space = quotient_space(s, t, m)
    return space.function(space.key_from_anf(anf_from_string(text, m).coeffs))


class TestWht:
    def test_constant(self):
        out = wht([5] * 8)
        assert out[0] == 40 and all(v == 0 for v in out[1:])

    def test_inverse_up_to_scale(self):
        rng = random.Random(0)
        vals = [rng.randrange(50) for _ in range(16)]
        twice = wht(wht(vals))
        assert twice.tolist() == [16 * v for v in vals]

    def test_int8_batch_equals_columns(self):
        rng = random.Random(3)
        batch = np.array(
            [[rng.choice((-1, 1)) for _ in range(40)] for _ in range(32)], dtype=np.int8
        )
        out = wht(batch)
        assert out.dtype == np.int8
        for j in range(batch.shape[1]):
            assert out[:, j].tolist() == wht(batch[:, j].tolist()).tolist()

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            wht([1, 2, 3])


class TestClassMap:
    def test_zero_function(self, sub123):
        f = quotient_space(2, 3, 4).zero()
        cm = class_map(f, sub123)
        zero_idx = int(sub123.lookup[0])
        assert all(v == zero_idx for v in cm.values)

    def test_triple_product(self):
        sub = orbit_enumerate(2, 2, 2)
        assert [repr(r) for r in sub.rep_functions()] == ["(2,2,2):0", "(2,2,2):ab"]
        f = qf("abc", 3, 3, 3)
        cm = class_map(f, sub)
        assert cm.values[0] == 0
        assert cm.values[0b100] == 1  # derivative along e3 restricts to ab

    def test_wrong_sub_space(self, sub124):
        with pytest.raises(ValueError):
            class_map(qf("abc", 2, 3, 4), sub124)

    def test_composition_relation(self, sub123):
        rng = random.Random(1)
        space = quotient_space(2, 3, 4)
        for _ in range(30):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            cm_f = class_map(f, sub123)
            cm_fs = class_map(q_apply_affine(f, s), sub123)
            assert all(
                cm_fs.values[v] == cm_f.values[matvec(s.rows, v)] for v in range(16)
            )

    def test_walsh_pairing(self, sub123):
        # the Walsh transforms of the class maps are exchanged by the
        # transpose of the linear part
        rng = random.Random(10)
        space = quotient_space(2, 3, 4)
        for _ in range(10):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fh_f = fourier_map(class_map(f, sub123))
            fh_fs = fourier_map(class_map(q_apply_affine(f, s), sub123))
            astar = transpose_rows(s.rows, 4)
            assert all(fh_fs[matvec(astar, x)] == fh_f[x] for x in range(16))


class TestSignatures:
    def test_constant_map_histogram(self):
        cm = ClassMap(3, (2,) * 8, "d" * 16)
        sig = j_signature(cm)
        assert sig.pairs == ((2, 8),)

    def test_invariance(self, sub123):
        rng = random.Random(2)
        space = quotient_space(2, 3, 4)
        for _ in range(50):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fs = q_apply_affine(f, s)
            assert j_signature(class_map(f, sub123)) == j_signature(
                class_map(fs, sub123)
            )
            assert j_hat_signature(class_map(f, sub123)) == j_hat_signature(
                class_map(fs, sub123)
            )

    def test_separates_oracle_classes(self, oracle335, sub224):
        sigs = [j_signature(class_map(f, sub224)) for f in oracle335.rep_functions()]
        assert len(set(sigs)) == len(sigs) == 3

    def test_fourier_constant(self):
        cm = ClassMap(3, (4,) * 8, "d" * 16)
        fm = fourier_map(cm)
        assert fm[0] == 32 and all(v == 0 for v in fm[1:])

    def test_fourier_dc_term(self, sub123):
        rng = random.Random(3)
        space = quotient_space(2, 3, 4)
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            cm = class_map(f, sub123)
            assert fourier_map(cm)[0] == sum(cm.values)

    def test_jhat_zero_function(self, sub123):
        f = quotient_space(2, 3, 4).zero()
        cm = class_map(f, sub123)
        z = int(sub123.lookup[0])
        sig = j_hat_signature(cm)
        n = 16
        if z == 0:
            assert sig.pairs == ((0, n),)
        else:
            assert sig.pairs == ((0, n - 1), (n * z, 1))

    def test_jhat_refines_j(self, sub123):
        rng = random.Random(4)
        space = quotient_space(2, 3, 4)
        seen = {}
        for _ in range(300):
            f = space.function(rng.randrange(1 << space.dim))
            cm = class_map(f, sub123)
            jh = j_hat_signature(cm)
            jj = j_signature(cm)
            if jh in seen:
                assert seen[jh] == jj
            else:
                seen[jh] = jj

    def test_digest_guard(self, sub123):
        f = qf("abc", 2, 3, 4)
        cm = class_map(f, sub123)
        sig = j_signature(cm)
        forged = ClassMap(cm.m, cm.values, "0" * 16)
        assert j_signature(forged) != sig
        assert j_signature(forged).pairs == sig.pairs
