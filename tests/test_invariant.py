import random

import numpy as np
import pytest

from rmcover.boolfun import anf_from_string, derivative, mobius_transform, restrict, wht
from rmcover.classify import orbit_enumerate
from rmcover.group import matvec, random_affine, transpose_rows
from rmcover.invariant import (
    class_map,
    class_maps,
    derived_keys,
    j_hat_signatures,
    j_signatures,
)
from rmcover.quotient import q_apply_affine, quotient_space

# the order-4 quintic of the m = 8 acceptance test (C7)
QUINTIC_12_TERMS = (
    "abcef+acdef+abcdg+abdeg+abcfg+acdeh+abcfh+bdefh+bcdgh+abegh+adfgh+cefgh"
)

# every window the suite classifies by orbit enumeration
ENUMERATED_WINDOWS = [
    (0, 1, 2), (0, 1, 6), (1, 1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (2, 3, 5),
    (3, 3, 4), (3, 3, 5), (3, 4, 5), (4, 3, 4), (5, 5, 7),
]


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


def per_direction_keys(f):
    """Reference derived keys, one direction at a time: lift, derivative,
    restriction, Moebius transform, key of the lower window."""
    sub_space = quotient_space(f.s - 1, f.t - 1, f.m - 1)
    lift = f.lift()
    keys = [0]
    for v in range(1, 1 << f.m):
        der = restrict(derivative(lift, v), v)
        keys.append(sub_space.key_from_anf(mobius_transform(der.tt, der.m)))
    return keys


def per_direction_class_map(f, sub):
    """Reference class map: the classes of the per-direction derived keys,
    numbered in one batch."""
    return sub.classes_of(per_direction_keys(f)).tolist()


class TestTablePath:
    @pytest.mark.parametrize("params", ENUMERATED_WINDOWS)
    def test_equals_per_direction_oracle(self, params):
        s, t, m = params
        cls = orbit_enumerate(s, t, m, stabilizers=False)
        sub = orbit_enumerate(max(s - 1, 0), t - 1, m - 1, stabilizers=False)
        rng = random.Random(100 * m + 10 * t + s)
        keys = cls.reps + [rng.randrange(1 << cls.space.dim) for _ in range(200)]
        maps = class_maps(cls.space, keys, sub)
        assert maps.shape == (len(keys), 1 << m)
        for key, row in zip(keys, maps.tolist()):
            f = cls.space.function(key)
            assert row == per_direction_class_map(f, sub)
            assert class_map(f, sub).tolist() == row

    def test_wide_keys(self):
        # B(5,6,8) keys have 84 bits; their derived B(4,5,7) keys fit in int64
        space = quotient_space(5, 6, 8)
        assert space.dim == 84
        quintic = space.key_from_anf(anf_from_string(QUINTIC_12_TERMS, 8).coeffs)
        rng = random.Random(568)
        keys = [quintic] + [rng.getrandbits(84) for _ in range(20)]
        assert sum(key >> 63 != 0 for key in keys) > 10
        derived = derived_keys(space, keys)
        assert derived.dtype == np.int64 and derived.shape == (21, 256)
        for key, row in zip(keys, derived.tolist()):
            assert row == per_direction_keys(space.function(key))


class TestClassMap:
    def test_zero_function(self, sub123):
        f = quotient_space(2, 3, 4).zero()
        cm = class_map(f, sub123)
        zero_idx = int(sub123.classes_of([0])[0])
        assert cm.dtype == np.int64 and all(v == zero_idx for v in cm)

    def test_triple_product(self):
        sub = orbit_enumerate(2, 2, 2)
        assert [repr(r) for r in sub.rep_functions()] == ["(2,2,2):0", "(2,2,2):ab"]
        f = qf("abc", 3, 3, 3)
        cm = class_map(f, sub)
        assert cm[0] == 0
        assert cm[0b100] == 1  # derivative along e3 restricts to ab

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
                cm_fs[v] == cm_f[matvec(s.rows, v)] for v in range(16)
            )

    def test_walsh_pairing(self, sub123):
        # the Walsh transforms of the class maps are exchanged by the
        # transpose of the linear part
        rng = random.Random(10)
        space = quotient_space(2, 3, 4)
        for _ in range(10):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fh_f = wht(class_map(f, sub123))
            fh_fs = wht(class_map(q_apply_affine(f, s), sub123))
            astar = transpose_rows(s.rows, 4)
            assert all(fh_fs[matvec(astar, x)] == fh_f[x] for x in range(16))


class TestSignatures:
    def test_constant_map_histogram(self):
        sig = j_signatures([(2,) * 8], "d" * 16)[0]
        assert sig.pairs == ((2, 8),)

    def test_invariance(self, sub123):
        rng = random.Random(2)
        space = quotient_space(2, 3, 4)
        for _ in range(50):
            f = space.function(rng.randrange(1 << space.dim))
            s = random_affine(4, rng)
            fs = q_apply_affine(f, s)
            maps = class_maps(space, [f.key, fs.key], sub123)
            j_f, j_fs = j_signatures(maps, sub123.digest)
            jh_f, jh_fs = j_hat_signatures(maps, sub123.digest)
            assert j_f == j_fs and jh_f == jh_fs

    def test_separates_oracle_classes(self, oracle335, sub224):
        maps = class_maps(oracle335.space, oracle335.reps, sub224)
        sigs = j_signatures(maps, sub224.digest)
        assert len(set(sigs)) == len(sigs) == 3

    def test_batched_histograms_equal_counter(self, sub123):
        # the batch signatures against a per-map Counter histogram
        from collections import Counter

        rng = random.Random(5)
        space = quotient_space(2, 3, 4)
        keys = [rng.randrange(1 << space.dim) for _ in range(300)]
        maps = class_maps(space, keys, sub123)
        for kind, sigs, transform in (
            ("J", j_signatures(maps, sub123.digest), list),
            ("Jhat", j_hat_signatures(maps, sub123.digest), lambda r: wht(r).tolist()),
        ):
            assert len(sigs) == len(keys)
            for row, sig in zip(maps.tolist(), sigs):
                assert sig.kind == kind
                assert sig.pairs == tuple(sorted(Counter(transform(row)).items()))
                assert sig.classification_digest == sub123.digest

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 16), dtype=np.int64)])
    def test_empty_batch(self, empty):
        assert j_signatures(empty, "d" * 16) == []
        assert j_hat_signatures(empty, "d" * 16) == []

    def test_fourier_constant(self):
        fm = wht([4] * 8)
        assert fm[0] == 32 and all(v == 0 for v in fm[1:])

    def test_fourier_dc_term(self, sub123):
        rng = random.Random(3)
        space = quotient_space(2, 3, 4)
        for _ in range(20):
            f = space.function(rng.randrange(1 << space.dim))
            cm = class_map(f, sub123)
            assert wht(cm)[0] == cm.sum()

    def test_jhat_zero_function(self, sub123):
        f = quotient_space(2, 3, 4).zero()
        cm = class_map(f, sub123)
        z = int(sub123.classes_of([0])[0])
        sig = j_hat_signatures([cm], sub123.digest)[0]
        n = 16
        if z == 0:
            assert sig.pairs == ((0, n),)
        else:
            assert sig.pairs == ((0, n - 1), (n * z, 1))

    def test_jhat_refines_j(self, sub123):
        rng = random.Random(4)
        space = quotient_space(2, 3, 4)
        seen = {}
        keys = [rng.randrange(1 << space.dim) for _ in range(300)]
        maps = class_maps(space, keys, sub123)
        for jh, jj in zip(
            j_hat_signatures(maps, sub123.digest), j_signatures(maps, sub123.digest)
        ):
            if jh in seen:
                assert seen[jh] == jj
            else:
                seen[jh] = jj

    def test_digest_guard(self, sub123):
        f = qf("abc", 2, 3, 4)
        cm = class_map(f, sub123)
        sig = j_signatures([cm], sub123.digest)[0]
        forged = j_signatures([cm], "0" * 16)[0]
        assert forged != sig
        assert forged.pairs == sig.pairs
