import random

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
        r = nl_probe(1, 4, row, 50, 0, random.Random(0))
        assert r.found and r.best_weight == 0

    def test_bent_limits(self):
        bent = parse_function(BENT4, 4)
        r = nl_probe(1, 4, bent, 500, 6, random.Random(1))
        assert r.found and r.best_weight == 6
        r = nl_probe(1, 4, bent, 2000, 5, random.Random(2))
        assert not r.found and r.best_weight == 6

    def test_found_respects_limit(self):
        rng = random.Random(3)
        for _ in range(30):
            f = BooleanFunction(4, rng.getrandbits(16))
            limit = rng.randrange(0, 7)
            r = nl_probe(1, 4, f, 200, limit, rng)
            assert r.found == (r.best_weight <= limit)

    def test_best_upper_bounds_exact(self):
        rng = random.Random(4)
        for _ in range(250):
            m = rng.choice((4, 5))
            k = rng.choice((1, 2))
            f = BooleanFunction(m, rng.getrandbits(1 << m))
            r = nl_probe(k, m, f, 30, 0, rng)
            assert r.best_weight >= exact_nonlinearity(k, m, f)

    def test_coset_preserved(self):
        rng = random.Random(5)
        for _ in range(5):
            f = BooleanFunction(4, rng.getrandbits(16))
            nl_probe(2, 4, f, 16, 0, rng, check_coset=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nl_probe(1, 3, BooleanFunction(4, 1), 10, 0, random.Random(0))

    def test_batch_equals_serial_mixed_hits(self):
        # limit 15 lets some translates hit early and others run the budget out
        base = random.Random(1).getrandbits(64)
        tts = [base ^ (1 << a) for a in range(0, 64, 4)]
        batch = probe_batch(2, 6, tts, 24, 15, random.Random(1))
        serial = [
            nl_probe(2, 6, BooleanFunction(6, tt), 24, 15, random.Random(1))
            for tt in tts
        ]
        assert batch == serial
        early = [r for r in batch if r.found and r.passes_used < 24]
        assert len(early) >= 2 and len({r.passes_used for r in early}) >= 2
        assert any(not r.found for r in batch)

    def test_batch_rejects_wide_truth_table(self):
        with pytest.raises(ValueError):
            probe_batch(1, 3, [1, 1 << 8], 4, 0, random.Random(0))


def reference_probe(k, m, tts, iter_budget, limit, rng, *, check_coset=False):
    """The row-by-row walk that the blocked probe_batch replaced, kept as its reference.

    Each row of the working matrix draws its pivot with randrange and is XORed
    into every later row set there; the functions sit side by side in one
    packed int and take the row through one multiply.
    """
    gen = rm_generator_matrix(k, m)
    n = 1 << m
    if any(tt >> n for tt in tts):
        raise ValueError(f"truth table wider than 2^{m} bits")
    stride = max(8, 1 << m)
    g = list(gen.rows)
    nrows = len(g)
    count = len(tts)
    block = stride // 8
    # packed through bytes: summing shifted ints is quadratic in the batch size
    ones = int.from_bytes((b"\x01" + bytes(block - 1)) * count, "little")
    big = int.from_bytes(b"".join(tt.to_bytes(block, "little") for tt in tts), "little")
    best = [tt.bit_count() for tt in tts]
    passes = [0] * count
    live = [b for b in range(count) if best[b] > limit]
    done = 0
    while live and done < iter_budget:
        done += 1
        for i in range(nrows):
            row = g[i]
            p = _reference_pivot(row, n, rng)
            bit = 1 << p
            for j in range(i + 1, nrows):
                if g[j] & bit:
                    g[j] ^= row
            sel = (big >> p) & ones
            if sel:
                big ^= sel * row
        if count == 1:
            weights = [big.bit_count()]
        else:
            raw = np.frombuffer(big.to_bytes(count * block, "little"), dtype=np.uint8)
            weights = np.bitwise_count(raw).reshape(count, -1).sum(axis=1).tolist()
        if check_coset:
            mask = (1 << n) - 1
            fs = [(big >> (b * stride)) & mask for b in range(count)]
            nonlinearity._assert_coset_preserved(g, fs, gen.rows, tts)
        hit = False
        for b in live:
            if weights[b] < best[b]:
                best[b] = weights[b]
                if best[b] <= limit:
                    passes[b] = done
                    hit = True
        if hit:
            live = [b for b in live if best[b] > limit]
    for b in live:
        passes[b] = done
    return [ProbeResult(best[b] <= limit, best[b], passes[b]) for b in range(count)]


def _reference_pivot(row, n, rng):
    for _ in range(nonlinearity._PIVOT_RETRY_CAP):
        p = rng.randrange(n)
        if (row >> p) & 1:
            return p
    # pathological luck: fall back to an explicit choice among the set bits
    return rng.choice(nonlinearity._set_positions(row))


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


class TestProbeKernel:
    """The blocked probe_batch against the row-by-row reference walk."""

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
                ours, theirs = random.Random(seed), random.Random(seed)
                got = probe_batch(k, m, tts, iters, limit, ours, check_coset=check)
                want = reference_probe(k, m, tts, iters, limit, theirs, check_coset=check)
                assert got == want, (k, count, limit)
                assert ours.getstate() == theirs.getstate()
                hit_passes.update(r.passes_used for r in got if r.found)
        if m >= 3:
            assert len(hit_passes - {0}) >= 2

    def test_pivot_fallback_equals_reference(self, monkeypatch):
        # with a cap of 1, a row whose first in-range draw misses takes the
        # explicit choice among its set bits
        monkeypatch.setattr(nonlinearity, "_PIVOT_RETRY_CAP", 1)
        fallbacks = []
        set_positions = nonlinearity._set_positions
        monkeypatch.setattr(
            nonlinearity, "_set_positions", lambda val: fallbacks.append(val) or set_positions(val)
        )
        rng = random.Random(7)
        for k, m, iters in ((1, 4, 12), (2, 6, 8), (4, 8, 2)):
            tts = _near_code_batch(k, m, 5, rng)
            seed = rng.getrandbits(32)
            fallbacks.clear()
            got = probe_batch(k, m, tts, iters, 0, random.Random(seed))
            assert fallbacks
            assert got == reference_probe(k, m, tts, iters, 0, random.Random(seed))

    def test_golden_m8(self):
        # the row-by-row walk's results, pinned: the quintic runs the budget
        # out, the B(5,6,8) element hits late
        tts = [parse_function(QUINTIC, 8).tt, _b568_element(1)]
        got = probe_batch(4, 8, tts, 96, 32, random.Random(1))
        assert _triples(got) == [(False, 34, 96), (True, 30, 79)]

    def test_golden_m6(self):
        base = random.Random(1).getrandbits(64)
        tts = [base ^ (1 << a) for a in range(0, 64, 4)]
        got = probe_batch(2, 6, tts, 24, 15, random.Random(1))
        assert _triples(got) == [
            (False, 16, 24), (False, 16, 24), (True, 14, 15), (False, 16, 24),
            (True, 14, 4), (False, 16, 24), (False, 16, 24), (True, 14, 18),
            (False, 16, 24), (True, 14, 9), (True, 14, 22), (False, 18, 24),
            (False, 16, 24), (False, 16, 24), (False, 16, 24), (False, 16, 24),
        ]

    @pytest.mark.parametrize("m", [1, 4, 6, 8])
    def test_pivot_draws_are_randrange(self, m):
        # RM(0,m) is one all-ones row, so each pass draws one pivot, the first
        # in-range value; the draws must be those of randrange(2**m) on this
        # interpreter, and use up the generator exactly as it does
        class Recording(random.Random):
            def getrandbits(self, k):
                value = super().getrandbits(k)
                self.drawn.append(value)
                return value

        for seed in range(5):
            rng = Recording(seed)
            rng.drawn = []
            probe_batch(0, m, [1], 12, -1, rng)
            ref = random.Random(seed)
            pivots = [p for p in rng.drawn if p < 1 << m]
            assert pivots == [ref.randrange(1 << m) for _ in range(12)]
            assert rng.getstate() == ref.getstate()


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
            2, 3, 8, reps, probe_iter=16, rng=random.Random(0)
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
            alone = nl_probe(k, m, BooleanFunction(m, tt), iters, limit, random.Random(seed))
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
