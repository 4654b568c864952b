import random
import tracemalloc

import numpy as np
import pytest

from rmcover import (
    BooleanFunction,
    InconsistentTableError,
    InfeasibleError,
    RadiusTable,
    bounds_propagate,
    covering_radius_exact,
    dirac,
    exact_nonlinearity,
    nl_probe,
    odd_weight_reduction,
    orbit_enumerate,
    parse_function,
    probe_batch,
    random_affine,
    relative_rho,
    rm_dimension,
    rm_generator_matrix,
    scan_representatives,
    walsh_spectrum,
    weight,
)
from rmcover import nonlinearity, parallel
from rmcover.boolfun import apply_affine, degree, mobius_transform
from rmcover.group import gf2_rank
from rmcover.nonlinearity import ProbeResult

BENT4 = "ab+cd"
# the order-4 quintic of the m = 8 acceptance test (C7)
QUINTIC = "abcef+acdef+abcdg+abdeg+abcfg+acdeh+abcfh+bdefh+bcdgh+abegh+adfgh+cefgh"


def table_row_m7():
    t = RadiusTable()
    for k, rho in zip(range(1, 8), (56, 40, 20, 8, 2, 1, 0)):
        t.set_exact(k, 7, rho, "m7-row")
    return t


class TestGeneratorMatrix:
    def test_order_zero(self):
        g = rm_generator_matrix(0, 2)
        assert g.rows == (0b1111,)

    def test_first_order(self):
        g = rm_generator_matrix(1, 2)
        assert g.nrows == 3

    def test_dimension_formula(self):
        assert rm_generator_matrix(4, 8).nrows == 163
        assert rm_dimension(4, 8) == 163

    def test_rows_independent(self):
        for k, m in ((1, 4), (2, 5), (3, 6)):
            g = rm_generator_matrix(k, m)
            assert gf2_rank(g.rows) == g.nrows

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            rm_generator_matrix(5, 4)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_rows_are_monomial_truth_tables(self, m):
        # the Moebius transform of a monomial against its truth table point
        # by point: x^mask is set at the x that cover the mask
        masks = sorted(range(1 << m), key=lambda s: (s.bit_count(), s))
        tables = []
        for mask in masks:
            tt = 0
            for x in range(1 << m):
                if x & mask == mask:
                    tt |= 1 << x
            tables.append(tt)
        for k in range(m + 1):
            want = [tt for mask, tt in zip(masks, tables) if mask.bit_count() <= k]
            assert rm_generator_matrix(k, m).rows == tuple(want), k


class TestExactNonlinearity:
    def test_codeword_distance_zero(self):
        rows = rm_generator_matrix(2, 4).rows
        f = BooleanFunction(4, rows[3] ^ rows[7])
        assert exact_nonlinearity(2, 4, f) == 0
        assert exact_nonlinearity(1, 4, BooleanFunction(4, rows[2])) == 0

    def test_bent_function(self):
        assert exact_nonlinearity(1, 4, parse_function(BENT4, 4)) == 6

    def test_dirac_distance_one(self):
        for m in (3, 4):
            assert exact_nonlinearity(m - 2, m, dirac(3, m)) == 1

    def test_affine_invariance(self):
        rng = random.Random(0)
        for _ in range(20):
            f = BooleanFunction(4, rng.getrandbits(16))
            s = random_affine(4, rng)
            assert exact_nonlinearity(1, 4, f) == exact_nonlinearity(
                1, 4, apply_affine(f, s)
            )
            assert exact_nonlinearity(2, 4, f) == exact_nonlinearity(
                2, 4, apply_affine(f, s)
            )

    def test_walsh_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(20):
            f = BooleanFunction(4, rng.getrandbits(16))
            via_walsh = exact_nonlinearity(1, 4, f)
            rows = rm_generator_matrix(1, 4).rows
            best = f.tt.bit_count()
            c = 0
            for i in range(1, 1 << len(rows)):
                c ^= rows[(i & -i).bit_length() - 1]
                best = min(best, (f.tt ^ c).bit_count())
            assert via_walsh == best

    def test_guard(self):
        with pytest.raises(InfeasibleError):
            exact_nonlinearity(2, 8, BooleanFunction(8, 1))

    def test_walsh_spectrum_parseval(self):
        rng = random.Random(2)
        for m in (3, 5):
            f = BooleanFunction(m, rng.getrandbits(1 << m))
            w = walsh_spectrum(f)
            assert int((w.astype(object) ** 2).sum()) == 1 << (2 * m)

    def test_walsh_spectrum_definition(self):
        rng = random.Random(4)
        for m in (1, 2, 3, 4):
            f = BooleanFunction(m, rng.getrandbits(1 << m))
            want = [
                sum((-1) ** (f.value(x) + (b & x).bit_count()) for x in range(1 << m))
                for b in range(1 << m)
            ]
            assert walsh_spectrum(f).tolist() == want


class TestProbe:
    def test_codeword_found_immediately(self):
        row = BooleanFunction(4, rm_generator_matrix(1, 4).rows[1])
        r = nl_probe(1, 4, row, 50, 0, 0)
        assert r.found and r.best_weight == 0

    def test_bent_limits(self):
        bent = parse_function(BENT4, 4)
        r = nl_probe(1, 4, bent, 500, 6, 1)
        assert r.found and r.best_weight == 6
        r = nl_probe(1, 4, bent, 2000, 5, 2)
        assert not r.found and r.best_weight == 6

    def test_found_respects_limit(self):
        rng = random.Random(3)
        for _ in range(30):
            f = BooleanFunction(4, rng.getrandbits(16))
            limit = rng.randrange(0, 7)
            r = nl_probe(1, 4, f, 200, limit, rng.getrandbits(32))
            assert r.found == (r.best_weight <= limit)

    def test_best_upper_bounds_exact(self):
        rng = random.Random(4)
        for _ in range(250):
            m = rng.choice((4, 5))
            k = rng.choice((1, 2))
            f = BooleanFunction(m, rng.getrandbits(1 << m))
            r = nl_probe(k, m, f, 30, 0, rng.getrandbits(32))
            assert r.best_weight >= exact_nonlinearity(k, m, f)

    def test_coset_preserved(self):
        rng = random.Random(5)
        for _ in range(5):
            f = BooleanFunction(4, rng.getrandbits(16))
            nl_probe(2, 4, f, 16, 0, rng.getrandbits(32), check_coset=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nl_probe(1, 3, BooleanFunction(4, 1), 10, 0, 0)

    def test_batch_equals_serial_mixed_hits(self):
        # limit 15 lets some translates hit early and others run the budget out
        base = random.Random(1).getrandbits(64)
        tts = [base ^ (1 << a) for a in range(0, 64, 4)]
        batch = probe_batch(2, 6, tts, 24, 15, 2)
        serial = [nl_probe(2, 6, BooleanFunction(6, tt), 24, 15, 2) for tt in tts]
        assert batch == serial
        early = [r for r in batch if r.found and r.passes_used < 24]
        assert len(early) >= 2 and len({r.passes_used for r in early}) >= 2
        assert any(not r.found for r in batch)

    def test_batch_rejects_wide_truth_table(self):
        with pytest.raises(ValueError):
            probe_batch(1, 3, [1, 1 << 8], 4, 0, 0)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_draws(seed, sweep, nrows):
    """The draws of one sweep in Python ints: SplitMix64 seeded by SplitMix64."""
    state = _splitmix(seed % (1 << 64) + (sweep + 1) * _GAMMA)
    return [_splitmix(state + (i + 1) * _GAMMA) for i in range(nrows)]


def reference_pivot(row, draw):
    """The (draw mod weight)-th lowest set bit of row."""
    for _ in range(draw % row.bit_count()):
        row &= row - 1
    return (row & -row).bit_length() - 1


def row_walk(k, m, tts, sweeps, seed, *, restart):
    """The row-by-row walk over the given sweep indices: per sweep, the rows at
    each draw, the rows after it and the functions after it.

    Each row draws its pivot and is XORed into every later row, and every
    function, set there.  With ``restart`` every sweep starts again from the
    generator rows and the original truth tables; without it the rows and
    functions carry over from the sweep before.
    """
    gen = rm_generator_matrix(k, m).rows
    g, fs = list(gen), list(tts)
    for s in sweeps:
        if restart:
            g, fs = list(gen), list(tts)
        at_draw = []
        for i, draw in enumerate(reference_draws(seed, s, len(g))):
            row = g[i]
            at_draw.append(row)
            bit = 1 << reference_pivot(row, draw)
            for j in range(i + 1, len(g)):
                if g[j] & bit:
                    g[j] ^= row
            fs = [f ^ row if f & bit else f for f in fs]
        yield at_draw, list(g), fs


def reference_probe(k, m, tts, iter_budget, limit, seed, *, check_coset=False):
    """The restart-every-sweep row-by-row walk, the reference of probe_batch."""
    gen = rm_generator_matrix(k, m)
    if any(tt >> (1 << m) for tt in tts):
        raise ValueError(f"truth table wider than 2^{m} bits")
    best = [tt.bit_count() for tt in tts]
    passes = [0] * len(tts)
    live = [b for b in range(len(tts)) if best[b] > limit]
    done = 0
    while live and done < iter_budget:
        live_tts = [tts[b] for b in live]
        [(_, rows, fs)] = row_walk(k, m, live_tts, [done], seed, restart=True)
        done += 1
        if check_coset:
            nonlinearity._assert_coset_preserved(rows, fs, gen.rows, live_tts)
        for b, f in zip(live, fs):
            if f.bit_count() < best[b]:
                best[b] = f.bit_count()
                if best[b] <= limit:
                    passes[b] = done
        live = [b for b in live if best[b] > limit]
    for b in live:
        passes[b] = done
    return [ProbeResult(b <= limit, b, p) for b, p in zip(best, passes)]


def _near_code_batch(k, m, count, rng):
    """Truth tables at spread distances from RM(k,m), a third with bit 63 of every word set."""
    rows = rm_generator_matrix(k, m).rows
    n = 1 << m
    tts = []
    for i in range(count):
        f = 0
        for row in rows:
            if rng.getrandbits(1):
                f ^= row
        for _ in range(rng.randrange(n // 2 + 1)):
            f ^= 1 << rng.randrange(n)
        if n >= 64 and i % 3 == 0:
            f |= sum(1 << b for b in range(63, n, 64))
        tts.append(f)
    return tts


def _b568_element(seed):
    """A seeded element of B(5,6,8): each monomial of degree 5 or 6 with probability 1/2."""
    rng = random.Random(seed)
    anf = 0
    for mask in range(256):
        if 5 <= mask.bit_count() <= 6 and rng.getrandbits(1):
            anf |= 1 << mask
    return mobius_transform(anf, 8)


def _triples(results):
    return [(r.found, r.best_weight, r.passes_used) for r in results]


def _first_sweep_pivots(k, m, seed):
    rows = nonlinearity._pack(rm_generator_matrix(k, m).rows, nonlinearity._row_bytes(m))
    _, pivots = nonlinearity._walk(rows, seed, 0, 1)
    return pivots[:, 0].tolist()


# the 163 pivots of the first sweep at k = 4, m = 8 under seed 1
PINNED_K4 = [
    30, 221, 240, 82, 165, 172, 22, 117, 211, 134, 129, 49, 1, 216, 4, 136,
    183, 223, 100, 115, 96, 160, 250, 17, 247, 225, 10, 142, 148, 182, 253, 119,
    156, 144, 224, 193, 63, 69, 219, 51, 27, 163, 3, 50, 137, 251, 14, 230,
    237, 68, 232, 146, 0, 74, 239, 58, 26, 175, 132, 60, 84, 226, 178, 255,
    45, 145, 92, 54, 66, 161, 141, 106, 19, 99, 124, 210, 153, 13, 79, 158,
    206, 149, 152, 133, 205, 169, 143, 235, 168, 231, 94, 138, 67, 236, 73, 18,
    11, 114, 40, 192, 151, 44, 254, 128, 93, 95, 207, 89, 7, 214, 101, 241,
    122, 47, 155, 222, 212, 120, 174, 135, 186, 102, 71, 157, 220, 217, 34, 56,
    33, 97, 38, 244, 213, 75, 15, 187, 24, 48, 234, 218, 37, 110, 113, 188,
    167, 21, 196, 162, 78, 208, 191, 201, 2, 233, 64, 80, 194, 215, 123, 109,
    189, 98, 139,
]


class TestProbeKernel:
    """The blocked probe_batch against the row-by-row reference walk."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_restart_equals_carry(self, m):
        # row operations only add earlier rows to later ones, so a sweep that
        # starts again from the generator rows and the original truth tables
        # meets the same rows at every draw, and leaves the same rows and
        # functions, as one that carries them on from the sweep before
        rng = random.Random(200 + m)
        sweeps = range({7: 3, 8: 2}.get(m, 6))
        for k in range(m + 1):
            tts = _near_code_batch(k, m, 5, rng)
            seed = rng.getrandbits(32)
            carried = list(row_walk(k, m, tts, sweeps, seed, restart=False))
            restarted = list(row_walk(k, m, tts, sweeps, seed, restart=True))
            assert carried == restarted, k

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_reference(self, m):
        rng = random.Random(100 + m)
        iters = {7: 8, 8: 4}.get(m, 16)
        hit_passes = set()
        for k in range(m + 1):
            for count in (0, 1, 2, 5, 40):
                tts = _near_code_batch(k, m, count, rng)
                # a limit between the batch's distances: hits come on different passes
                limit = rng.randrange(max(1, (1 << m) // 8) + 1)
                check = m <= 6 and count in (1, 5)
                seed = rng.getrandbits(32)
                got = probe_batch(k, m, tts, iters, limit, seed, check_coset=check)
                want = reference_probe(k, m, tts, iters, limit, seed, check_coset=check)
                assert got == want, (k, count, limit)
                hit_passes.update(r.passes_used for r in got if r.found)
        if m >= 3:
            assert len(hit_passes - {0}) >= 2

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, budget):
        # one sweep per block, each reduced alone, or the whole budget in one block
        rng = random.Random(9)
        cases = []
        for k, m, limit in ((1, 4, 3), (2, 6, 15), (4, 8, 40)):
            tts = _near_code_batch(k, m, 40, rng)
            cases.append((k, m, tts, 12, limit, rng.getrandbits(32)))
        want = [probe_batch(*case) for case in cases]
        walked = []
        walk = nonlinearity._walk

        def spy(*args):
            planes, pivots = walk(*args)
            walked.append(len(planes))
            return planes, pivots

        monkeypatch.setattr(nonlinearity, "_walk", spy)
        monkeypatch.setattr(nonlinearity, "_BLOCK_BYTES", budget)
        for case, results in zip(cases, want):
            walked.clear()
            assert probe_batch(*case) == results
            assert walked == ([1] * len(walked) if budget == 1 else [12])
            assert len({r.passes_used for r in results if r.found} - {0}) >= 2

    def test_frozen_functions_leave_later_blocks(self, monkeypatch):
        # with one sweep per block, a function that first hits at pass P is
        # reduced in sweeps 1..P only; its result still equals the reference
        monkeypatch.setattr(nonlinearity, "_BLOCK_BYTES", 1)
        reduced = []
        reduce = nonlinearity._reduce

        def spy(fs, planes, pivots):
            reduced.append(set(nonlinearity._unpack(fs, 8 * fs.shape[1])))
            return reduce(fs, planes, pivots)

        monkeypatch.setattr(nonlinearity, "_reduce", spy)
        tts = sorted(set(_near_code_batch(2, 6, 40, random.Random(11))))
        got = probe_batch(2, 6, tts, 24, 15, 5)
        assert got == reference_probe(2, 6, tts, 24, 15, 5)
        assert len({r.passes_used for r in got if r.found} - {0, 24}) >= 2
        for tt, r in zip(tts, got):
            seen = [s for s, fs in enumerate(reduced, 1) if tt in fs]
            assert seen == list(range(1, r.passes_used + 1))

    def test_draws_equal_reference(self):
        # the numpy stream is SplitMix64 as written out in Python ints
        for seed in (0, 1, 12345, -7, (1 << 64) + 3):
            draws = nonlinearity._sweep_draws(seed, 5, 3, 17)
            for s in range(3):
                assert draws[:, s].tolist() == reference_draws(seed, 5 + s, 17)

    def test_full_weight_row_at_sixteen_variables(self):
        # RM(0,16) is one row of 2^16 set bits: its weight must not wrap
        rng = random.Random(16)
        tts = [rng.getrandbits(1 << 16) for _ in range(3)]
        want = reference_probe(0, 16, tts, 3, 32700, 5)
        assert probe_batch(0, 16, tts, 3, 32700, 5) == want
        assert len({r.passes_used for r in want}) == 3

    @pytest.mark.parametrize("k, m", [(2, 12), (1, 14), (0, 16)])
    def test_memory_follows_rows_and_batch(self, k, m):
        # the tables are keyed by the rows' pivots, not by the 2^m positions:
        # at 256 functions (tables of width 8) the traced peak stays within
        # a few copies of the batch and the block budget
        rng = random.Random(m)
        tts = [rng.getrandbits(1 << m) for _ in range(256)]
        # the generator matrix is cached before the trace starts
        rm_generator_matrix(k, m)
        tracemalloc.start()
        try:
            probe_batch(k, m, tts, 2, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = len(tts) << m >> 3
        assert peak < 2 * nonlinearity._BLOCK_BYTES + 8 * batch, peak

    def test_first_sweep_pivots_pinned(self):
        # the draws fix every seeded probe and scan report: a change to the
        # bit stream, or to how a draw picks a set bit, must fail here
        assert _first_sweep_pivots(0, 8, 1) == [30]
        assert _first_sweep_pivots(4, 8, 1) == PINNED_K4

    def test_golden_m8(self):
        # the reference walk's results, pinned: one hit on pass 2, one late
        tts = [parse_function(QUINTIC, 8).tt, _b568_element(1)]
        got = probe_batch(4, 8, tts, 96, 34, 3)
        assert _triples(got) == [(True, 34, 2), (True, 34, 82)]

    def test_golden_m6(self):
        base = random.Random(1).getrandbits(64)
        tts = [base ^ (1 << a) for a in range(0, 64, 4)]
        got = probe_batch(2, 6, tts, 24, 15, 1)
        assert _triples(got) == [
            (True, 14, 6), (False, 18, 24), (False, 16, 24), (False, 18, 24),
            (False, 18, 24), (False, 16, 24), (False, 18, 24), (False, 16, 24),
            (False, 16, 24), (False, 16, 24), (False, 18, 24), (False, 16, 24),
            (False, 16, 24), (False, 18, 24), (False, 18, 24), (False, 18, 24),
        ]


class TestCoveringRadius:
    def test_rho_last_order(self):
        # the window above the penultimate order holds only near-codewords
        assert covering_radius_exact(1, 2) == 1
        assert covering_radius_exact(2, 3) == 1
        assert covering_radius_exact(3, 4) == 1

    def test_rho_1_4(self):
        assert covering_radius_exact(1, 4) == 6

    def test_rho_top_is_zero(self):
        assert covering_radius_exact(3, 3) == 0

    def test_guard(self):
        with pytest.raises(InfeasibleError):
            covering_radius_exact(2, 8)


class TestRelativeRho:
    def test_degenerate_window(self, oracle234):
        assert relative_rho(3, 3, 4, orbit_enumerate(4, 3, 4)) == (0, True)

    def test_two_oracles_agree(self, oracle234):
        # representative maximum equals the direct maximum over the window
        value, certified = relative_rho(1, 3, 4, oracle234)
        assert certified
        space = oracle234.space
        direct = max(
            exact_nonlinearity(1, 4, space.function(key).lift())
            for key in range(1 << space.dim)
        )
        assert value == direct

    def test_space_mismatch(self, oracle234):
        with pytest.raises(ValueError):
            relative_rho(2, 3, 4, oracle234)

    def test_uncertified_probe_path(self):
        # exact order-2 nonlinearity at m=8 is infeasible, so the probe
        # supplies upper evidence and the result is flagged uncertified
        from rmcover.classify import Classification
        from rmcover.quotient import quotient_space

        space = quotient_space(3, 3, 8)
        reps = Classification(space=space, reps=[0, 1], provenance="adhoc")
        value, certified = relative_rho(
            2, 3, 8, reps, probe_iter=16, seed=0
        )
        assert not certified
        assert value >= 0


class TestBounds:
    def test_interval_for_next_row(self):
        # the relative value is probe evidence, so it enters as an upper bound
        t = table_row_m7()
        t.set_relative(4, 6, 8, 0, 26, provenance="probe")
        t.set_exact(6, 8, 2)
        out = bounds_propagate(t)
        b = out.bound(4, 8)
        assert (b.lo, b.hi) == (20, 28)

    def test_handbook_rows_consistent(self):
        t = table_row_m7()
        t.set_exact(1, 8, 120)
        t.set_interval(2, 8, 88, 96)
        t.set_interval(3, 8, 50, 67)
        t.set_exact(4, 8, 26)
        t.set_exact(5, 8, 10)
        t.set_exact(6, 8, 2)
        t.set_exact(7, 8, 1)
        t.set_exact(8, 8, 0)
        out = bounds_propagate(t)
        for k, rho in zip(range(1, 8), (56, 40, 20, 8, 2, 1, 0)):
            b = out.bound(k, 7)
            assert (b.lo, b.hi) == (rho, rho)

    def test_doubling_bound_matches_oracle(self):
        t = RadiusTable()
        t.set_exact(1, 4, covering_radius_exact(1, 4))
        t.set_interval(1, 5, 0, 16)
        out = bounds_propagate(t)
        assert out.bound(1, 5).lo == 12

    def test_idempotent_and_monotone(self):
        t = table_row_m7()
        t.set_relative(4, 6, 8, 0, 26)
        t.set_exact(6, 8, 2)
        once = bounds_propagate(t)
        twice = bounds_propagate(once)
        for key, b in once.absolute.items():
            b2 = twice.absolute[key]
            assert (b.lo, b.hi) == (b2.lo, b2.hi)
            orig = t.absolute.get(key)
            if orig is not None:
                assert b.lo >= orig.lo and b.hi <= orig.hi

    def test_inconsistency_flagged(self):
        t = RadiusTable()
        t.set_exact(1, 4, 6)
        t.set_exact(1, 5, 10)  # violates the doubling bound
        with pytest.raises(InconsistentTableError):
            bounds_propagate(t)


class TestOddWeight:
    def test_dirac_recovers_point(self):
        for m in (2, 4, 6):
            for a in (0, 1, (1 << m) - 1):
                assert odd_weight_reduction(dirac(a, m)) == a

    def test_degree_drop_random(self):
        rng = random.Random(6)
        for m in (3, 5, 8):
            for _ in range(100):
                tt = rng.getrandbits(1 << m)
                if tt.bit_count() % 2 == 0:
                    tt ^= 1 << rng.randrange(1 << m)
                h = BooleanFunction(m, tt)
                a = odd_weight_reduction(h)
                assert degree(h ^ dirac(a, m)) <= m - 2

    def test_even_weight_rejected(self):
        with pytest.raises(ValueError):
            odd_weight_reduction(BooleanFunction(3, 0b11))


class TestScan:
    def test_zero_representative(self):
        reps = orbit_enumerate(2, 2, 3)
        report = scan_representatives(1, reps, 4, 32, seed=1)
        assert report.entries[0].result.found  # the zero class
        assert report.entries[0].result.best_weight == 0

    def test_partition(self, oracle234):
        report = scan_representatives(1, oracle234, 2, 64, seed=2)
        assert len(report.found) + len(report.not_found) == oracle234.n_classes
        for e in report.entries:
            exact = exact_nonlinearity(
                1, 4, oracle234.rep_function(e.index).lift()
            )
            if e.result.found:
                assert exact <= 2

    def test_dirac_translates(self):
        reps = orbit_enumerate(2, 2, 3)
        report = scan_representatives(1, reps, 0, 16, seed=3, dirac_translates=True)
        assert len(report.entries) == reps.n_classes * 8
        shifts = {e.shift for e in report.entries}
        assert shifts == set(range(8))

    @staticmethod
    def _assert_entries_equal_alone(report, reps, k, m, iters, limit, seed):
        # every entry is nl_probe on its function alone under the scan's seed
        for e in report.entries:
            tt = reps.rep_function(e.index).lift().tt
            if e.shift is not None:
                tt ^= 1 << e.shift
            alone = nl_probe(k, m, BooleanFunction(m, tt), iters, limit, seed)
            assert alone == e.result

    def test_dirac_entries_equal_serial_probes(self, oracle234):
        # one seed for the whole scan, plain or dirac: all functions ride one walk
        for dirac_translates in (False, True):
            report = scan_representatives(
                2, oracle234, 2, 16, seed=5, dirac_translates=dirac_translates
            )
            self._assert_entries_equal_alone(report, oracle234, 2, 4, 16, 2, 5)

    @pytest.mark.parametrize("dirac_translates", [False, True])
    def test_entries_do_not_depend_on_chunking(self, oracle234, monkeypatch, dirac_translates):
        kw = dict(seed=6, dirac_translates=dirac_translates)
        whole = scan_representatives(2, oracle234, 2, 16, **kw)
        monkeypatch.setattr(nonlinearity, "_CHUNK_BITS", 1)  # one function per chunk
        single = scan_representatives(2, oracle234, 2, 16, **kw)
        assert whole.entries == single.entries
        self._assert_entries_equal_alone(single, oracle234, 2, 4, 16, 2, 6)

    def test_jobs_agree_with_serial(self, oracle234):
        # each scan fits one chunk, which --jobs 2 must split across the pool
        for dirac_translates in (False, True):
            kw = dict(seed=4, dirac_translates=dirac_translates)
            serial = scan_representatives(2, oracle234, 2, 32, **kw)
            pooled = scan_representatives(2, oracle234, 2, 32, jobs=2, **kw)
            assert [(e.index, e.shift, e.result) for e in serial.entries] == [
                (e.index, e.shift, e.result) for e in pooled.entries
            ]

    @pytest.mark.parametrize("jobs, bounds", [(2, [0, 2, 5]), (4, [0, 1, 2, 3, 5]), (9, range(6))])
    def test_jobs_split_the_chunk(self, oracle234, monkeypatch, jobs, bounds):
        # the 5 functions fit one chunk: the pool gets min(jobs, 5) near-equal pieces
        calls = []
        monkeypatch.setattr(
            parallel, "probe_batch_parallel",
            lambda walk, chunks, jobs: calls.append(chunks) or [walk.probe(c) for c in chunks],
        )
        report = scan_representatives(2, oracle234, 2, 32, seed=4, jobs=jobs)
        assert calls == [[range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]]
        self._assert_entries_equal_alone(report, oracle234, 2, 4, 32, 2, 4)
