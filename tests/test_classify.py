import random
from collections import deque

import numpy as np
import pytest

from rmcover.classify import (
    class_of,
    classify_pipeline,
    initial_cover_set,
    load_classification,
    orbit_enumerate,
    reduce_cover_set,
    save_classification,
)
from rmcover.common import SpaceTooLargeError
from rmcover.group import (
    AffineTransformation,
    _StabilizerChain,
    agl_order,
    base_images,
    compose,
    identity,
    invert,
    random_affine,
)
from rmcover.invariant import class_maps
from rmcover.quotient import q_apply_affine, quotient_space
from search_pipeline import search_pipeline


def orbit_minima_reference(s, t, m, sub):
    """Cover entries by plain BFS over every h key of every class of sub."""
    from rmcover.quotient import action_matrix, apply_key, multiply_affine_form

    h_space = quotient_space(s, t, m - 1)
    entries = []
    for g_idx in range(sub.n_classes):
        g_fn = sub.rep_function(g_idx)
        moves = [action_matrix(h_space, u) for u in sub.stabilizer_gens[g_idx]]
        shifts = [
            multiply_affine_form(1 << alpha, g_fn, s, t).key
            for alpha in [0] + [1 << i for i in range(m - 1)]
        ]
        seen = set()
        for start in range(1 << h_space.dim):
            if start in seen:
                continue
            entries.append((g_idx, start))
            seen.add(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for y in [apply_key(im, x) for im in moves] + [x ^ c for c in shifts]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return entries


def bfs_class_labels(space):
    """Class numbers of every key of a window by a plain BFS under AGL's
    default generators, orbits numbered by their smallest key."""
    from rmcover.group import agl_generators

    gens = agl_generators(space.m)
    labels = [-1] * (1 << space.dim)
    n_classes = 0
    for key in range(len(labels)):
        if labels[key] >= 0:
            continue
        labels[key] = n_classes
        queue = deque([key])
        while queue:
            f = space.function(queue.popleft())
            for g in gens:
                image = q_apply_affine(f, g).key
                if labels[image] < 0:
                    labels[image] = n_classes
                    queue.append(image)
        n_classes += 1
    return labels


def closure_keys(gens, m):
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
    return seen


def closure_size(gens, m):
    return len(closure_keys(gens, m))


@pytest.fixture(scope="module")
def oracle235():
    return orbit_enumerate(2, 3, 5)


@pytest.fixture(scope="module")
def oracle126():
    return orbit_enumerate(1, 2, 6)


class TestOrbitEnumerate:
    def test_quadratic_forms_three_vars(self, oracle223):
        assert oracle223.n_classes == 2
        assert [repr(f) for f in oracle223.rep_functions()] == [
            "(2,2,3):0",
            "(2,2,3):ab",
        ]

    def test_linear_forms_two_vars(self, sub112):
        assert [repr(f) for f in sub112.rep_functions()] == ["(1,1,2):0", "(1,1,2):a"]

    def test_partition(self):
        c = orbit_enumerate(3, 3, 4)
        assert sum(c.orbit_sizes) == 16

    def test_orbit_sizes_divide_group_order(self, oracle234):
        for size in oracle234.orbit_sizes:
            assert agl_order(4) % size == 0

    def test_lookup_consistency(self, oracle234):
        space = oracle234.space
        rng = random.Random(0)
        for _ in range(50):
            key = rng.randrange(1 << space.dim)
            cls = int(oracle234.classes_of([key])[0])
            # the representative is the smallest key in the orbit
            assert oracle234.reps[cls] <= key
            s = random_affine(4, rng)
            moved = q_apply_affine(space.function(key), s)
            assert class_of(moved, oracle234) == cls
        assert int(oracle234.classes_of([0])[0]) == 0

    def test_space_guard(self):
        with pytest.raises(SpaceTooLargeError):
            orbit_enumerate(2, 3, 5, space_guard=1 << 10)

    def test_custom_generator_set_gives_same_partition(self, oracle234):
        # a redundant generating set must reproduce representatives and sizes
        from rmcover.group import agl_generators, compose, transvection

        gens = agl_generators(4)
        gens = gens + [compose(gens[0], gens[1]), transvection(0b0001, 0b0110, 4)]
        other = orbit_enumerate(2, 3, 4, gens, stabilizers=False)
        assert other.reps == oracle234.reps
        assert other.orbit_sizes == oracle234.orbit_sizes


class TestStabilizers:
    def test_zero_rep_generates_full_group(self, sub112):
        assert closure_size(sub112.stabilizer_gens[0], 2) == 24

    def test_generators_fix_representative(self, oracle223, sub124, oracle235, oracle126):
        for cls in (oracle223, sub124, oracle235, oracle126):
            for i in range(cls.n_classes):
                rep = cls.rep_function(i)
                for g in cls.stabilizer_gens[i]:
                    assert q_apply_affine(rep, g) == rep

    def test_generators_short_of_agl_are_refused(self):
        # without the translation the walk generators span GL(3,2), whose
        # orbits split B(1,2,3) into 5 classes against 4: a random key of an
        # orbit walks back to another representative
        from rmcover.group import agl_generators

        gens = agl_generators(3)[:-1]
        assert orbit_enumerate(1, 2, 3, gens, stabilizers=False).n_classes == 5
        with pytest.raises(RuntimeError, match="do not generate AGL"):
            orbit_enumerate(1, 2, 3, gens)

    def test_orbit_stabilizer_theorem(self, oracle223, sub112):
        for cls in (oracle223, sub112):
            m = cls.space.m
            for i in range(cls.n_classes):
                gens = cls.stabilizer_gens[i]
                assert closure_size(gens, m) * cls.orbit_sizes[i] == agl_order(m)

    def test_pruned_generators_are_irredundant(self, sub123, sub124, oracle235, oracle126):
        # each selected generator lies outside the group of the ones before
        # it, and together they generate all of Stab, by the chain on every
        # window and by enumerated closures at m <= 4; the closure of class 0
        # of sub124 (all 322560 elements of AGL(4,2)) takes about 10 s to
        # enumerate, so its order is checked by the chain alone
        for cls in (sub123, sub124, oracle235, oracle126):
            m = cls.space.m
            for i in range(cls.n_classes):
                stab_order = agl_order(m) // cls.orbit_sizes[i]
                gens = cls.stabilizer_gens[i]
                chain = _StabilizerChain(m, stab_order)
                for k, g in enumerate(gens):
                    assert chain.add(g)
                    if m <= 4:
                        assert (g.rows, g.trans) not in closure_keys(gens[:k], m)
                assert chain.order() == stab_order
                if m <= 4 and stab_order <= 1 << 16:
                    assert closure_size(gens, m) == stab_order

    def test_orbits_beyond_2_16_get_whole_stabilizers(self, oracle235):
        # orbits of 79360, 416640, 277760 and 166656 points, far more than
        # the stabilizer walk visits before its chain reaches |Stab|
        large = [i for i, n in enumerate(oracle235.orbit_sizes) if n > 1 << 16]
        assert len(large) == 4
        for i in large:
            rep = oracle235.rep_function(i)
            closure = closure_keys(oracle235.stabilizer_gens[i], 5)
            assert len(closure) == agl_order(5) // oracle235.orbit_sizes[i]
            for key in closure:
                assert q_apply_affine(rep, AffineTransformation(5, *key)) == rep


class TestStabilizerChain:
    @staticmethod
    def subgroup_generators(m, rng):
        """Generators of the trivial group, a cyclic group, a group of
        unitriangular affine maps, a linear group or (m < 4) any group."""
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice([[], [identity(m)]])
        if kind == 1:
            return [random_affine(m, rng)]
        n = rng.randrange(1, 4)
        if kind == 2:
            return [
                AffineTransformation(
                    m,
                    tuple(
                        (1 << i) | (rng.getrandbits(m) & -(2 << i) & ((1 << m) - 1))
                        for i in range(m)
                    ),
                    rng.getrandbits(m),
                )
                for _ in range(n)
            ]
        gens = [random_affine(m, rng) for _ in range(n)]
        if kind == 3 or m == 4:
            gens = [AffineTransformation(m, g.rows, 0) for g in gens]
        return gens

    def test_order_and_membership_match_closure(self):
        rng = random.Random(17)
        orders = set()
        for m in (2, 3, 4):
            for _ in range(12):
                gens = self.subgroup_generators(m, rng)
                closure = closure_keys(gens, m)
                # the chain stops adding once it reaches the closure's order,
                # so membership below is tested on a chain that stopped early
                chain = _StabilizerChain(m, len(closure))
                for g in gens:
                    chain.add(g)
                assert chain.order() == len(closure)
                orders.add((m, len(closure)))
                members = [AffineTransformation(m, *key) for key in closure]
                for _ in range(20):
                    x = random_affine(m, rng)
                    assert chain.contains(x) == ((x.rows, x.trans) in closure)
                    y = rng.choice(members)
                    assert chain.contains(y)
        # proper subgroups of several sizes at every m, the trivial group included
        for m in (2, 3, 4):
            assert (m, 1) in orders
            assert len({n for mm, n in orders if mm == m and 1 < n < agl_order(m)}) >= 2

    def test_extend_alone_stays_within_the_group(self):
        # a chain grown by extend alone, from a random walk over the
        # generators, never counts more elements than the exact chain; once
        # it reaches that order it answers membership as the exact chain does
        rng = random.Random(29)
        for m in (2, 3, 4):
            for _ in range(12):
                gens = self.subgroup_generators(m, rng)
                exact = _StabilizerChain(m, agl_order(m))
                for g in gens:
                    exact.add(g)
                chain = _StabilizerChain(m, exact.order())
                x = identity(m)
                for _ in range(400 if gens else 0):
                    if chain.order() == exact.order():
                        break
                    x = compose(x, rng.choice(gens))
                    chain.extend(base_images(x))
                    assert chain.order() <= exact.order()
                assert chain.order() == exact.order()
                for _ in range(200):
                    x = random_affine(m, rng)
                    assert chain.contains(x) == exact.contains(x)


class TestCoverSets:
    def test_initial_size_example(self, sub112):
        cover = initial_cover_set(2, 2, 3, sub112)
        assert cover.size == 2 * 2 == 4

    def test_initial_size_formula(self, sub123):
        cover = initial_cover_set(2, 3, 4, sub123)
        assert cover.size == sub123.n_classes * (1 << quotient_space(2, 3, 3).dim)

    def test_initial_cover_property(self, sub123, oracle234):
        keys = list(initial_cover_set(2, 3, 4, sub123).assembled(sub123))
        hit = set(oracle234.classes_of(keys).tolist())
        assert hit == set(range(oracle234.n_classes))

    def test_reduced_cover_property(self, sub123, oracle234):
        red = reduce_cover_set(2, 3, 4, sub123)
        keys = list(red.assembled(sub123))
        assert len(keys) == red.size <= initial_cover_set(2, 3, 4, sub123).size
        hit = set(oracle234.classes_of(keys).tolist())
        assert hit == set(range(oracle234.n_classes))

    def test_assembled_keys_of_the_m6_covers(self, oracle235):
        # digests of the keys the ANF-loop recomposition gave for the two
        # 131-entry covers of the pipeline windows of m = 6
        from rmcover.classify import classification_digest

        for params, sub, digest in (
            ((2, 3, 6), orbit_enumerate(1, 2, 5), "2c76c4ba918379bd"),
            ((3, 4, 6), oracle235, "41fa49990b63ad99"),
        ):
            keys = list(reduce_cover_set(*params, sub).assembled(sub))
            assert len(keys) == 131
            assert classification_digest(quotient_space(*params), keys) == digest

    def test_reduction_degenerates_for_zero(self, sub123):
        red = reduce_cover_set(2, 3, 4, sub123)
        zero_entries = sorted(h for g, h in red.entries if g == 0)
        assert zero_entries == orbit_enumerate(2, 3, 3).reps

    def test_cover_property_other_windows(self, sub112):
        # (2,2,3) over the linear-form classes, and the s=1 window (1,2,3)
        # whose lower window includes the constants
        oracle223 = orbit_enumerate(2, 2, 3)
        for cover in (
            initial_cover_set(2, 2, 3, sub112),
            reduce_cover_set(2, 2, 3, sub112),
        ):
            hit = set(oracle223.classes_of(list(cover.assembled(sub112))).tolist())
            assert hit == set(range(oracle223.n_classes))

        sub012 = orbit_enumerate(0, 1, 2)
        oracle123 = orbit_enumerate(1, 2, 3)
        for cover in (
            initial_cover_set(1, 2, 3, sub012),
            reduce_cover_set(1, 2, 3, sub012),
        ):
            hit = set(oracle123.classes_of(list(cover.assembled(sub012))).tolist())
            assert hit == set(range(oracle123.n_classes))

    def test_stabilizer_moves_stay_in_orbit(self, sub123, oracle234):
        # moves h -> h o u (u in Stab(g)) and h -> h + alpha*g keep the
        # recomposition in one orbit
        from rmcover.quotient import compose_decomposition, multiply_affine_form

        rng = random.Random(1)
        h_space = quotient_space(2, 3, 3)
        for g_idx in range(sub123.n_classes):
            g_fn = sub123.rep_function(g_idx)
            stab = sub123.stabilizer_gens[g_idx]
            for _ in range(10):
                h = h_space.function(rng.randrange(1 << h_space.dim))
                base = compose_decomposition(g_fn, h)
                base_cls = class_of(base, oracle234)
                for u in stab:
                    moved = compose_decomposition(g_fn, q_apply_affine(h, u))
                    assert class_of(moved, oracle234) == base_cls
                for i in range(3):
                    shift = multiply_affine_form(1 << (1 << i), g_fn, 2, 3)
                    moved = compose_decomposition(g_fn, h ^ shift)
                    assert class_of(moved, oracle234) == base_cls

    def test_reduction_equals_orbit_minima(self, sub123, sub124):
        # the walk on V/T must emit exactly the orbit minima over all of V,
        # in the same order
        for params, sub in (((2, 3, 4), sub123), ((2, 3, 5), sub124)):
            assert list(reduce_cover_set(*params, sub).entries) == (
                orbit_minima_reference(*params, sub)
            )

    def test_coset_reduction_gives_coset_minimum(self):
        from rmcover.group import gf2_echelon, gf2_rank, gf2_reduce

        rng = random.Random(5)
        for _ in range(50):
            vecs = [rng.getrandbits(8) for _ in range(rng.randrange(1, 6))]
            span = {0}
            for v in vecs:
                span |= {x ^ v for x in span}
            basis = gf2_echelon(vecs)
            assert 1 << len(basis) == len(span)
            assert 1 << gf2_rank(vecs) == len(span)
            for x in range(256):
                assert gf2_reduce(x, basis) == min(x ^ y for y in span)

    def test_stabilizer_must_preserve_translations(self, sub123):
        # for g = a the translations span {ab, ac}; swapping x1 and x2 sends
        # ac to bc, outside that span
        import copy

        from rmcover.group import AffineTransformation

        assert repr(sub123.rep_function(1)) == "(1,2,3):a"
        swap = AffineTransformation(3, (0b010, 0b001, 0b100), 0)
        broken = copy.copy(sub123)
        broken.stabilizer_gens = list(sub123.stabilizer_gens)
        broken.stabilizer_gens[1] = [swap]
        with pytest.raises(ValueError, match="does not preserve"):
            reduce_cover_set(2, 3, 4, broken)

    def test_stabilizer_must_fix_representative(self, sub123):
        # a random map that keeps the translations of g = ab+c in their span
        # but moves g itself
        import copy

        from rmcover.quotient import multiply_affine_form

        g = sub123.rep_function(3)
        assert repr(g) == "(1,2,3):ab+c"
        u = random_affine(3, random.Random(0))
        assert q_apply_affine(g, u) != g
        shifts = [multiply_affine_form(1 << a, g, 2, 3) for a in (0, 1, 2, 4)]
        span = {0}
        for sh in shifts:
            span |= {x ^ sh.key for x in span}
        assert all(q_apply_affine(sh, u).key in span for sh in shifts)
        broken = copy.copy(sub123)
        broken.stabilizer_gens = list(sub123.stabilizer_gens)
        broken.stabilizer_gens[3] = [u]
        with pytest.raises(ValueError, match="class 3 does not fix"):
            reduce_cover_set(2, 3, 4, broken)

    def test_missing_stabilizers_rejected(self, sub123):
        import copy

        crippled = copy.copy(sub123)
        crippled.stabilizer_gens = None
        with pytest.raises(ValueError):
            reduce_cover_set(2, 3, 4, crippled)


class TestClassOf:
    def test_representative_maps_to_itself(self, oracle234):
        for i, rep in enumerate(oracle234.rep_functions()):
            assert class_of(rep, oracle234) == i

    def test_constructed_membership_lookup(self, oracle234):
        rng = random.Random(2)
        space = oracle234.space
        for _ in range(30):
            i = rng.randrange(oracle234.n_classes)
            moved = q_apply_affine(oracle234.rep_function(i), random_affine(4, rng))
            assert class_of(moved, oracle234) == i

    def test_window_too_large_for_its_bfs_refuses(self, oracle234):
        # without a Schreier vector the window attaches it by BFS; one too
        # large for that refuses
        import copy

        blind = copy.copy(oracle234)
        blind.schreier = None
        blind.ensure_schreier = lambda **kw: (_ for _ in ()).throw(
            SpaceTooLargeError("simulated oversize window")
        )
        with pytest.raises(SpaceTooLargeError):
            class_of(oracle234.rep_function(0), blind)

    @pytest.mark.parametrize("fixture", ["sub123", "sub124", "sub224", "oracle234"])
    def test_walk_back_numbers_like_a_plain_bfs(self, fixture, request):
        cls = request.getfixturevalue(fixture)
        keys = np.arange(1 << cls.space.dim)
        assert cls.classes_of(keys).tolist() == bfs_class_labels(cls.space)

    def test_walk_back_counts_the_orbits_of_b235(self, oracle235):
        classes = oracle235.classes_of(np.arange(1 << oracle235.space.dim))
        assert np.bincount(classes).tolist() == oracle235.orbit_sizes
        assert oracle235.classes_of(oracle235.reps).tolist() == list(range(oracle235.n_classes))

    def test_walk_ending_off_the_representatives_refused(self, oracle234):
        # a Schreier vector that marks a non-representative as a start
        import copy

        key = next(k for k in range(1 << oracle234.space.dim) if k not in oracle234.reps)
        broken = copy.copy(oracle234)
        broken.schreier = oracle234.schreier.copy()
        broken.schreier[key] = -2
        with pytest.raises(RuntimeError, match=f"walks back to {key:#x}, not a representative"):
            broken.classes_of([key])


class TestPipeline:
    def test_matches_oracle_223(self, sub112, oracle223):
        cls, report = classify_pipeline(2, 2, 3, sub112)
        assert cls.n_classes == oracle223.n_classes

    def test_matches_oracle_234(self, sub123, oracle234):
        cls, report = classify_pipeline(2, 3, 4, sub123)
        assert cls.n_classes == oracle234.n_classes
        assert cls.reps == oracle234.reps

    def test_matches_oracle_345(self, oracle234):
        oracle345 = orbit_enumerate(3, 4, 5, stabilizers=False)
        cls, report = classify_pipeline(3, 4, 5, oracle234)
        assert cls.n_classes == oracle345.n_classes
        assert cls.reps == oracle345.reps

    def test_oracle_235_feeds_pipeline_346(self, oracle235):
        # 34 is the class count of B(2,3,6), the dual window of B(3,4,6):
        # an element fixes as many points of a window as of its dual, so
        # Burnside gives both windows the same number of orbits
        cls, report = classify_pipeline(3, 4, 6, oracle235)
        assert cls.n_classes == 34

    def test_parallel_jobs_agree(self, sub123, oracle234):
        cls, report = classify_pipeline(2, 3, 4, sub123, jobs=2)
        assert cls.n_classes == oracle234.n_classes
        assert (cls.reps, cls.orbit_sizes) == (oracle234.reps, oracle234.orbit_sizes)
        # the counters, walk-back depths included, do not depend on the chunks
        assert report == classify_pipeline(2, 3, 4, sub123)[1]

    def test_retries_settle_undefined_pairs(self):
        # at seed 28 one pair of B(2,3,6) stays Undefined through 3 searches
        # and is kept apart as an unresolved pair; more retries decide it
        sub = orbit_enumerate(1, 2, 5)
        cls, report = search_pipeline(2, 3, 6, sub, seed=28, retries=3)
        assert (cls.n_classes, report.equivalence_calls) == (35, 106)
        assert report.undefined_outcomes == 10
        assert report.unresolved_pairs == [(1061216, 1241514022)]
        cls, report = search_pipeline(2, 3, 6, sub, seed=28, retries=8)
        assert (cls.n_classes, report.equivalence_calls) == (34, 107)
        assert report.undefined_outcomes == 10
        assert not report.unresolved_pairs
        assert cls.digest == "6c3f590c9416ab65"

    def test_traced_bench_seed(self):
        # the pipeline the benchmark traced: B(1,2,5) oracle, seed 211, 8 retries
        sub = orbit_enumerate(1, 2, 5)
        cls, report = search_pipeline(2, 3, 6, sub, seed=211, retries=8)
        assert cls.digest == "6c3f590c9416ab65"
        assert (report.equivalence_calls, report.undefined_outcomes) == (101, 4)
        assert not report.unresolved_pairs


@pytest.fixture(scope="module")
def oracle125():
    return orbit_enumerate(1, 2, 5)


def slice_translations(sub, g_idx, s, t):
    """Echelon basis of T, the span of the alpha*g keys of one slice."""
    from rmcover.group import gf2_echelon
    from rmcover.quotient import multiply_affine_form

    g_fn = sub.rep_function(g_idx)
    return gf2_echelon(
        multiply_affine_form(1 << alpha, g_fn, s, t).key
        for alpha in [0] + [1 << i for i in range(sub.space.m)]
    )


def file_generator_walks(s, t, m, sub):
    """Entries and P-orbit sizes of V/T walks by the file's stabilizer
    generators, with tables built here from their action matrices."""
    from rmcover.classify import _schreier_vector, _unseen, _walk_orbit
    from rmcover.group import gf2_reduce, subset_tables
    from rmcover.quotient import action_matrix

    h_space = quotient_space(s, t, m - 1)
    entries, sizes = [], []
    for g_idx in range(sub.n_classes):
        basis = slice_translations(sub, g_idx, s, t)
        pivots = {b.bit_length() - 1 for b in basis}
        free = [q for q in range(h_space.dim) if q not in pivots]

        def on_cosets(key):
            key = gf2_reduce(key, basis)
            return sum(((key >> q) & 1) << j for j, q in enumerate(free))

        tables = []
        for u in sub.stabilizer_gens[g_idx]:
            images = action_matrix(h_space, u)
            rows = [on_cosets(images[q]) for q in free]
            tables.append(subset_tables(np.array(rows, dtype=np.int64), 8))
        vector = _schreier_vector(1 << len(free), len(tables))
        for start in _unseen(vector):
            walked = _walk_orbit(tables, vector, start)
            entries.append((g_idx, sum(((start >> j) & 1) << q for j, q in enumerate(free))))
            sizes.append(sub.orbit_sizes[g_idx] * walked << len(basis))
    return entries, sizes


class TestDrawnWalkGenerators:
    @pytest.mark.parametrize("params", [(2, 3, 6), (3, 4, 6)])
    def test_walk_maps_are_the_checked_file_lists(self, params, oracle125, oracle235):
        from rmcover.classify import _slice_generators
        from rmcover.group import gf2_reduce
        from rmcover.quotient import action_matrix, apply_key

        s, t, m = params
        sub = {(2, 3, 6): oracle125, (3, 4, 6): oracle235}[params]
        h_space = quotient_space(s, t, m - 1)
        for g_idx in range(sub.n_classes):
            basis = slice_translations(sub, g_idx, s, t)
            checked = _slice_generators(sub, g_idx, h_space, basis)
            maps = [u for u, _ in checked]
            assert maps == sub.stabilizer_gens[g_idx]
            assert all(images == action_matrix(h_space, u) for u, images in checked)
            rep = sub.rep_function(g_idx)
            order = agl_order(m - 1) // sub.orbit_sizes[g_idx]
            chain = _StabilizerChain(m - 1, order)
            for u in maps:
                assert q_apply_affine(rep, u) == rep
                images = action_matrix(h_space, u)
                assert not any(gf2_reduce(apply_key(images, b), basis) for b in basis)
                chain.add(u)
            assert chain.order() == order

    @pytest.mark.parametrize("params", [(2, 3, 6), (3, 4, 6)])
    def test_entries_and_sizes_match_walks_by_file_generators(
        self, params, oracle125, oracle235
    ):
        sub = {(2, 3, 6): oracle125, (3, 4, 6): oracle235}[params]
        cover = reduce_cover_set(*params, sub)
        entries, sizes = file_generator_walks(*params, sub)
        assert list(cover.entries) == entries
        assert cover.walks.sizes == sizes
        assert sum(sizes) == 1 << quotient_space(*params).dim

    # sha256 of each oracle file as the lazy Schreier walk wrote it, with its
    # S lines removed, and of the whole file with the sampled S lines
    ORACLE_FILES = {
        (1, 2, 5): (
            "a61f032002ed78e44eb3d6ba71b76564a268bf157866a9fc717033281dae8695",
            "b6e7eb4c93e84537a4ab0c1684404a43ebb7b6342b178f4d275c545d2636c310",
        ),
        (2, 3, 5): (
            "5c511ce60826554f6824430736e1bf780dc2388dc3665de7f6c597dd9203242c",
            "f647eec06e621a6b6fb7848c65236f2f95d12b839c85f6ada6752dfc4447c353",
        ),
        (1, 2, 6): (
            "d2c86ab85727493ad90f93e5cd1639361d647dd9477da549cef38a23becef9f5",
            "18609f92de93c08f6ef5b2b3f2b76de96870687d7b7bcf37d65609cd5c310090",
        ),
        (5, 5, 7): (
            "089ad147c14ce3cd2359750ce817636d51a6e9bb45bfe8751416447ee704858e",
            "a99bc8edff65f0c968f5e1742efd4331c68521c7340710356714a7554cb51399",
        ),
    }

    @pytest.mark.parametrize("params", list(ORACLE_FILES))
    def test_oracle_files_keep_their_bytes(
        self, params, oracle125, oracle235, oracle126, tmp_path
    ):
        # header, G and R lines byte for byte as before the sampled
        # stabilizers, and the whole file as the sampler writes it: its
        # seeds are fixed, so the S lines are too
        import hashlib

        known = {(1, 2, 5): oracle125, (2, 3, 5): oracle235, (1, 2, 6): oracle126}
        cls = known.get(params) or orbit_enumerate(*params)
        path = tmp_path / "oracle.cls"
        save_classification(cls, str(path))
        data = path.read_bytes()
        stripped = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(b"S ")
        )
        assert (
            hashlib.sha256(stripped).hexdigest(),
            hashlib.sha256(data).hexdigest(),
        ) == self.ORACLE_FILES[params]


class TestLabels:
    @pytest.mark.parametrize(
        "params, sub_params",
        [
            ((2, 2, 3), (1, 1, 2)),
            ((2, 3, 4), (1, 2, 3)),
            ((3, 4, 5), (2, 3, 4)),
            ((2, 3, 6), (1, 2, 5)),
            ((3, 4, 6), (2, 3, 5)),
        ],
    )
    def test_labels_match_the_search(self, params, sub_params, oracle125, oracle235):
        # the search pipeline merges the same entries into the same classes:
        # the smallest key of each is the representative both ways
        sub = {(1, 2, 5): oracle125, (2, 3, 5): oracle235}.get(sub_params)
        sub = sub or orbit_enumerate(*sub_params)
        cls, report = classify_pipeline(*params, sub)
        searched, _ = search_pipeline(*params, sub)
        assert (cls.reps, cls.digest) == (searched.reps, searched.digest)
        assert sum(cls.orbit_sizes) == 1 << cls.space.dim
        assert report.n_buckets <= cls.n_classes

    @pytest.mark.parametrize(
        "params, sub_params",
        [
            ((2, 3, 4), (1, 2, 3)),
            ((3, 4, 5), (2, 3, 4)),
            ((2, 3, 5), (1, 2, 4)),
            # windows with constants, whose classes 0 and 1 both have
            # orbits of one point
            ((1, 2, 4), (0, 1, 3)),
            ((0, 3, 4), (0, 2, 3)),
        ],
    )
    def test_orbit_sizes_and_labels_match_the_oracle(self, params, sub_params):
        from rmcover.classify import _labeler

        sub = orbit_enumerate(*sub_params)
        oracle = orbit_enumerate(*params, stabilizers=False)
        cls, _ = classify_pipeline(*params, sub)
        assert (cls.reps, cls.orbit_sizes) == (oracle.reps, oracle.orbit_sizes)
        # the entry labelling entry o A_v lies in the class of entry o A_v
        # (here, the class of the entry itself)
        space = quotient_space(*params)
        cover = reduce_cover_set(*params, sub)
        keys = np.array(list(cover.assembled(sub)))
        labels, _ = _labeler(space, sub, cover)(keys)
        assert (oracle.classes_of(keys[labels]) == oracle.classes_of(keys)[:, None]).all()

    @pytest.mark.parametrize("params", [(2, 3, 5), (3, 4, 6)])
    def test_transport_reaches_the_representative(self, params, sub124, oracle235):
        # walking g back along the lower window's Schreier vector ends at
        # its class representative, and the carried h is h o T for the
        # transporter T composed from the inverse generators on that path;
        # the base images of a map u, carried through the generators
        # themselves in homogeneous coordinates, come out as those of T^-1 o u
        from rmcover.classify import _homogeneous, _labeler, _side_by_side
        from rmcover.group import base_images

        sub = {(2, 3, 5): sub124, (3, 4, 6): oracle235}[params]
        space = quotient_space(*params)
        h_space = quotient_space(params[0], params[1], params[2] - 1)
        lab = _labeler(space, sub, reduce_cover_set(*params, sub))
        rng = random.Random(7)
        gs = [rng.randrange(1 << sub.space.dim) for _ in range(40)]
        hs = [rng.randrange(1 << h_space.dim) for _ in range(40)]
        classes, carried, _ = sub.walk_back(np.array(gs), carry=(lab.h_back, np.array(hs)))
        gens = sub.walk_generators()
        k = sub.space.m
        us = [random_affine(k, rng) for _ in gs]
        bases = np.array([b | 1 << k for u in us for b in base_images(u)])
        homogeneous = _side_by_side([_homogeneous(u) for u in gens], k + 1)
        repeated, images, _ = sub.walk_back(np.repeat(gs, k + 1), carry=(homogeneous, bases))
        assert repeated.tolist() == np.repeat(classes, k + 1).tolist()
        images = (images & ((1 << k) - 1)).reshape(len(gs), k + 1).tolist()
        walked = zip(gs, hs, us, classes.tolist(), carried.tolist(), images)
        for g, h, u, cls, h_end, u_end in walked:
            transporter = identity(k)
            while sub.schreier[g] >= 0:
                step = invert(gens[sub.schreier[g]])
                g = q_apply_affine(sub.space.function(g), step).key
                transporter = compose(transporter, step)
            assert g == sub.reps[cls]
            assert q_apply_affine(h_space.function(h), transporter).key == h_end
            assert u_end == list(base_images(compose(invert(transporter), u)))

    def test_incomplete_stabilizer_list_refused(self, sub123, tmp_path):
        # class 1 (g = a, orbit 7) loses the last generator of its
        # irredundant list, which leaves a proper subgroup of Stab(a): its
        # walks would split P-orbits, so the file is refused
        path = tmp_path / "b123.cls"
        save_classification(sub123, str(path))
        lines = path.read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("S 1 "))
        assert sum(line.startswith("S 1 ") for line in lines) > 1
        assert sub123.orbit_sizes[1] > 1
        del lines[last]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="class 1 generate"):
            classify_pipeline(2, 3, 4, load_classification(str(path)))


class TestFiles:
    def test_round_trip(self, oracle223, tmp_path):
        path = tmp_path / "c.cls"
        save_classification(oracle223, str(path))
        loaded = load_classification(str(path))
        assert loaded.reps == oracle223.reps
        assert loaded.digest == oracle223.digest
        assert loaded.orbit_sizes == oracle223.orbit_sizes
        assert len(loaded.stabilizer_gens) == oracle223.n_classes
        loaded.ensure_schreier()
        assert (loaded.schreier == oracle223.schreier).all()

    def test_loaded_file_needs_no_preparation(self, sub123, oracle234, tmp_path):
        # a loaded file numbers keys itself, attaching its Schreier vector on
        # first use
        path = tmp_path / "b123.cls"
        save_classification(sub123, str(path))
        loaded = load_classification(str(path))
        assert loaded.schreier is None
        rng = random.Random(123)
        for i in range(sub123.n_classes):
            moved = q_apply_affine(sub123.rep_function(i), random_affine(3, rng))
            assert class_of(moved, loaded) == i
        loaded = load_classification(str(path))
        keys = oracle234.reps + [rng.randrange(1 << oracle234.space.dim) for _ in range(20)]
        assert (
            class_maps(oracle234.space, keys, loaded).tolist()
            == class_maps(oracle234.space, keys, sub123).tolist()
        )

    def test_failed_write_keeps_previous_file(self, oracle223, oracle234, tmp_path, request):
        path = tmp_path / "c.cls"
        save_classification(oracle223, str(path))
        before = path.read_bytes()
        request.getfixturevalue("fail_writes")
        with pytest.raises(OSError):
            save_classification(oracle234, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.cls"]

    def test_digest_tamper_detected(self, oracle223, tmp_path):
        path = tmp_path / "c.cls"
        save_classification(oracle223, str(path))
        text = path.read_text().replace("R 1 7 ab", "R 1 7 ab+bc")
        path.write_text(text)
        with pytest.raises(ValueError, match="digest"):
            load_classification(str(path))

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cls"
        path.write_text("#%space 2 2 3\nR 0 1 0\nQ nonsense\n")
        with pytest.raises(ValueError, match="bad.cls:3"):
            load_classification(str(path))

    def test_second_space_header_refused(self, tmp_path):
        # the records after it would otherwise be parsed in the new window
        path = tmp_path / "c.cls"
        path.write_text("#%space 1 2 3\nR 0 - ab\n#%space 2 3 4\nR 1 - abc\n")
        with pytest.raises(ValueError, match="c.cls:3: second space header"):
            load_classification(str(path))

    @pytest.mark.parametrize("header", ["digest", "provenance"])
    @pytest.mark.parametrize("forged_first", [True, False])
    def test_second_digest_or_provenance_header_refused(self, sub123, tmp_path, header, forged_first):
        # a forged line before the true one would otherwise be replaced by it,
        # and one after it would win; either way the file is refused
        path = tmp_path / "c.cls"
        save_classification(sub123, str(path))
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"#%{header}"))
        forged = "#%digest 0000000000000000" if header == "digest" else "#%provenance forged"
        lines.insert(at if forged_first else at + 1, forged)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"c.cls:{at + 2}: second {header} header"):
            load_classification(str(path))

    @pytest.mark.parametrize("record", ["G 1,2,4;0", "R 0 - ab", "S 0 -"])
    def test_record_before_space_header_refused(self, tmp_path, record):
        path = tmp_path / "c.cls"
        path.write_text(f"{record}\n#%space 1 2 3\nR 0 - 0\n")
        kind = record.split()[0]
        with pytest.raises(
            ValueError, match=f"c.cls:1: '{kind}' record before the space header"
        ):
            load_classification(str(path))

    @pytest.mark.parametrize("line", ["S 99 -", "S -1 -"])
    def test_stabilizer_of_unknown_class_refused(self, oracle223, tmp_path, line):
        path = tmp_path / "c.cls"
        save_classification(oracle223, str(path))
        text = path.read_text() + line + "\n"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"c.cls:{len(text.splitlines())}:"):
            load_classification(str(path))

    def test_representative_outside_window_refused(self, tmp_path):
        path = tmp_path / "c.cls"
        path.write_text("#%space 1 2 3\nR 0 1 0\nR 1 7 abc+a\n")
        with pytest.raises(ValueError, match="c.cls:3:"):
            load_classification(str(path))

    @pytest.mark.parametrize("size", ["999", "0", "-7", "x"])
    def test_orbit_size_not_dividing_the_group_refused(self, sub123, tmp_path, size):
        path = tmp_path / "c.cls"
        save_classification(sub123, str(path))
        lines = path.read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("R 1 "))
        lines[lineno - 1] = " ".join(["R", "1", size, lines[lineno - 1].split()[3]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"c.cls:{lineno}:"):
            load_classification(str(path))

    def test_orbit_sizes_not_summing_to_the_window_refused(self, sub123, tmp_path):
        # 2 divides |AGL(3,2)|, but the sizes then sum to 65, not 2^6
        path = tmp_path / "c.cls"
        save_classification(sub123, str(path))
        text = path.read_text()
        assert "R 0 1 0\n" in text
        path.write_text(text.replace("R 0 1 0\n", "R 0 2 0\n"))
        with pytest.raises(ValueError, match="sum to 65"):
            load_classification(str(path))
        # without every size there is no sum to check
        path.write_text(text.replace("R 0 1 0\n", "R 0 - 0\n"))
        assert load_classification(str(path)).orbit_sizes is None

    def test_stabilizers_of_some_classes_only_refused(self, sub123, tmp_path):
        # with S lines for class 0 alone the other classes' stabilizers are
        # unknown, so the file is refused rather than loaded half-stabilized
        path = tmp_path / "c.cls"
        save_classification(sub123, str(path))
        lines = path.read_text().splitlines()
        kept = [line for line in lines if not line.startswith("S ") or line.startswith("S 0 ")]
        assert len(kept) < len(lines) and any(line.startswith("S 0 ") for line in kept)
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="c.cls: S lines for some classes but not for class 1$"):
            load_classification(str(path))

    def test_ensure_schreier_refuses_foreign_orbit_sizes(self, oracle234):
        import copy

        swapped = copy.copy(oracle234)
        swapped.schreier = None
        swapped.orbit_sizes = oracle234.orbit_sizes[:]
        swapped.orbit_sizes[1:3] = swapped.orbit_sizes[2:0:-1]
        assert sum(swapped.orbit_sizes) == 1 << oracle234.space.dim
        with pytest.raises(ValueError, match="orbit sizes"):
            swapped.ensure_schreier()
        assert swapped.schreier is None

    def test_ensure_schreier_refuses_foreign_numbering(self, oracle223, tmp_path):
        import copy

        shuffled = copy.copy(oracle223)
        shuffled.schreier = None
        shuffled.reps = list(reversed(oracle223.reps))
        with pytest.raises(ValueError, match="different numbering"):
            shuffled.ensure_schreier()

    def test_loader_fuzz_only_value_errors(self, oracle223, tmp_path):
        path = tmp_path / "c.cls"
        save_classification(oracle223, str(path))
        base = path.read_text()
        mutations = [
            base.replace("#%space 2 2 3", "#%space 2 2"),
            base.replace("#%space 2 2 3", "#%space x y z"),
            base.replace("R 0 1 0", "R 5 1 0"),
            base.replace("R 0 1 0", "R 0 1 zz"),
            base.replace("S 0 ", "S notanint "),
            base + "W whatever\n",
            "G 1,2;0\n" + base,  # generator before the space header
            base.replace("G 3,2,4;0", "G 3,2;0"),
            base.replace("G 3,2,4;0", "G 1,1,4;0"),  # singular generator
        ]
        for i, text in enumerate(mutations):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_classification(str(path))


class TestDegenerateWindows:
    def test_zero_dimensional_window(self):
        cls = orbit_enumerate(4, 3, 4)
        assert cls.n_classes == 1
        assert cls.orbit_sizes == [1]
        assert cls.classes_of([0]).tolist() == [0]

    def test_full_window_with_constants(self):
        # s = 0 keeps the constant monomial; AGL fixes the constants' classes
        cls = orbit_enumerate(0, 1, 2)
        assert cls.n_classes == 3
        reprs = [repr(f) for f in cls.rep_functions()]
        assert reprs[0] == "(0,1,2):0"
        assert "(0,1,2):1" in reprs
