"""Reed-Muller nonlinearity: probabilistic probe, exact oracles, radius bounds.

The order-k nonlinearity of f is its Hamming distance to RM(k,m), i.e. the
coset-leader weight of its coset.  Exact values come from the Walsh spectrum
(k = 1) or from full codeword/coset enumeration at small sizes; beyond that a
randomized row-elimination probe produces small-weight coset members, which
upper-bound the nonlinearity and accumulate non-existence evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import boolfun as bf
from .boolfun import BooleanFunction
from .common import InfeasibleError
from .group import gf2_rank, subset_tables, xor_lookup

DEFAULT_ENUM_GUARD = 1 << 22
DEFAULT_COSET_GUARD = 1 << 26
# bytes of arrays a step of the probe builds: the sweeps of a walk's block,
# the sweeps reduced at once and the table groups looked up at once take
# their number from it
_BLOCK_BYTES = 1 << 20
_WORD = np.dtype("<u8")
# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), the probe's pivot draws
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
# _BIT[b]: the byte with bit b set; _SELECT[b, r]: the position of the r-th
# lowest set bit of the byte b
_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)
_SELECT = np.array(
    [[p for p in range(8) if b >> p & 1] + [0] * (8 - b.bit_count()) for b in range(256)],
    dtype=np.intp,
)
# packed truth-table bits per scan chunk, 16384 functions at m = 8: a scan
# builds the truth tables of one chunk at a time
_CHUNK_BITS = 1 << 22


def rm_dimension(k: int, m: int) -> int:
    return sum(math.comb(m, i) for i in range(k + 1))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Monomial evaluation rows of RM(k,m), by (degree, mask) ascending."""

    k: int
    m: int
    rows: tuple[int, ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)


@lru_cache(maxsize=None)
def rm_generator_matrix(k: int, m: int) -> GeneratorMatrix:
    if not 0 <= k <= m:
        raise ValueError(f"order must be within 0..{m}")
    masks = sorted(range(1 << m), key=lambda s: (s.bit_count(), s))
    rows = (bf.mobius_transform(1 << mask, m) for mask in masks if mask.bit_count() <= k)
    return GeneratorMatrix(k, m, tuple(rows))


def walsh_spectrum(f: BooleanFunction) -> np.ndarray:
    """Signed Walsh spectrum W(b) = sum_x (-1)^(f(x) + b.x)."""
    n = 1 << f.m
    raw = np.frombuffer(f.tt.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    arr = np.unpackbits(raw, bitorder="little", count=n).astype(np.int32)
    return bf.wht(1 - 2 * arr)


def _first_order_nl(f: BooleanFunction) -> int:
    w = walsh_spectrum(f)
    return (1 << (f.m - 1)) - int(np.max(np.abs(w))) // 2


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    best_weight: int
    passes_used: int


def nl_probe(
    k: int,
    m: int,
    f: BooleanFunction,
    iter_budget: int,
    limit: int,
    seed: int,
    *,
    check_coset: bool = False,
) -> ProbeResult:
    """Randomized row-elimination probe for small-weight coset members.

    Each pass sweeps the rows of the RM(k,m) generator matrix in order: a
    random pivot column is drawn among the set positions of the row, and the
    row is eliminated from the rows below it, and from f when f is set at
    the pivot.  Row operations keep the matrix row-equivalent to the
    generator matrix and keep f inside its original coset, so every recorded
    weight upper-bounds the nonlinearity.  Stops as soon as a weight at most
    ``limit`` appears.

    This is ``probe_batch`` on a batch of one: a batch probed with ``seed``
    gives every function exactly the result of ``nl_probe`` on it alone with
    ``seed``.
    """
    if f.m != m:
        raise ValueError("dimension mismatch")
    return probe_batch(k, m, [f.tt], iter_budget, limit, seed, check_coset=check_coset)[0]


def probe_batch(
    k: int,
    m: int,
    tts: Sequence[int],
    iter_budget: int,
    limit: int,
    seed: int,
    *,
    check_coset: bool = False,
) -> list[ProbeResult]:
    """Probe a batch of truth tables through one shared matrix walk.

    Row operations only add earlier rows to later ones, so the first r rows
    span what the first r generator rows span, for every r.  Row r at its
    draw is therefore the one element of (generator row r + span of the rows
    before it) clear at the pivots drawn so far in its sweep, and a function
    after a sweep is the one element of its coset clear at all of them.  A
    sweep that starts again from the generator rows and the original truth
    tables thus reaches the rows and functions of one that carries them on:
    sweep s depends only on its own pivots, drawn from its own stream (see
    ``_sweep_draws``), never on the sweeps before it.

    The sweeps go in blocks: ``_walk`` takes a block's matrix rows as one
    array with a leading sweep axis, and ``_reduce`` then brings the
    functions still live to each sweep's pivots, a few sweeps at a time.  A
    function's result is frozen at the pass where it first reaches
    ``limit``, and only live functions are reduced in later sweeps; the walk
    stops once none is left or the budget is spent.  ``_walk`` and
    ``_reduce`` each size their own arrays to about ``_BLOCK_BYTES``, and no
    result depends on the sizes.
    """
    gen = rm_generator_matrix(k, m)
    if any(tt >> (1 << m) for tt in tts):
        raise ValueError(f"truth table wider than 2^{m} bits")
    nbytes = _row_bytes(m)
    rows = _pack(gen.rows, nbytes)
    fs = _pack(tts, nbytes)
    best = _weights(fs)
    passes = np.zeros(len(tts), dtype=np.int64)
    live = np.flatnonzero(best > limit)
    done = 0
    while live.size and done < iter_budget:
        planes, pivots = _walk(rows, seed, done, iter_budget)
        lo = 0
        while live.size and lo < len(planes):
            # after a hit, the functions still live are reduced from the next sweep on
            for reduced in _reduce(fs[live], planes[lo:], pivots[:, lo:]):
                if check_coset:
                    for s, now in enumerate(reduced, lo):
                        _assert_coset_preserved(
                            _unpack(planes[s].T, nbytes),
                            _unpack(now, nbytes),
                            gen.rows,
                            [tts[b] for b in live],
                        )
                weights = _weights(reduced)
                hit = weights <= limit
                first = hit.argmax(axis=0)
                hits = hit.any(axis=0)
                at_first = weights[first, np.arange(live.size)]
                best[live] = np.where(hits, at_first, np.minimum(best[live], weights.min(axis=0)))
                passes[live[hits]] = done + lo + first[hits] + 1
                live = live[~hits]
                lo += len(reduced)
                if hits.any():
                    break
        done += len(planes)
        # free the block before the next walk builds its own
        del planes, pivots
    passes[live] = done
    return [
        ProbeResult(b <= limit, b, p) for b, p in zip(best.tolist(), passes.tolist())
    ]


def _sweep_draws(seed: int, first: int, sweeps: int, nrows: int) -> np.ndarray:
    """The uint64 draws of sweeps first, first + 1, ...: (rows, sweeps).

    Sweep s is seeded by the (s+1)-th output of SplitMix64 from ``seed``
    (mod 2^64), and its rows take the first ``nrows`` outputs of SplitMix64
    from that seed.  The stream is computed here, so no numpy version
    changes it.
    """
    s = np.arange(first + 1, first + sweeps + 1, dtype=np.uint64)
    state = _splitmix(np.uint64(seed % (1 << 64)) + s * _GAMMA)
    i = np.arange(1, nrows + 1, dtype=np.uint64)
    return _splitmix(state + i[:, None] * _GAMMA)


def _splitmix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function, elementwise on a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    return z ^ (z >> np.uint64(31))


def _walk(rows: np.ndarray, seed: int, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrix rows and pivots of a block of sweeps from ``first`` on.

    The block holds as many sweeps, up to ``last``, as fit ``_BLOCK_BYTES``
    and at least one; per sweep its arrays take two copies of the rows (the
    planes and their update), six bytes per byte of a row for the pivot
    choice and three words per row.  Every sweep starts from ``rows`` and
    draws from ``_sweep_draws``.  Row i of a sweep takes the draw u and
    pivots at its (u mod c)-th lowest set bit, c its weight, so each set bit
    comes out with probability within 2^-64 of 1/c.  The row is then
    eliminated from every other row set at the pivot, the rows before it
    too: the rows below are what the row-by-row walk leaves, and a sweep
    ends in reduced echelon form, each row clear at the others' pivots,
    which is what ``_reduce`` needs.

    The rows are kept as word planes, (sweeps, words, rows), so that an
    elimination runs along the rows.  Returns them with the pivots,
    (rows, sweeps).
    """
    nrows, nwords = rows.shape
    per_sweep = 2 * rows.nbytes + 6 * 8 * nwords + 24 * nrows
    sweeps = min(last - first, max(1, _BLOCK_BYTES // per_sweep))
    draws = _sweep_draws(seed, first, sweeps, nrows)
    planes = np.repeat(rows.T[None], sweeps, axis=0)
    flat = planes.reshape(sweeps * nwords, nrows)
    first_word = np.arange(0, sweeps * nwords, nwords)
    first_byte = 8 * first_word
    pivots = np.empty((nrows, sweeps), dtype=np.intp)
    update = np.empty_like(planes)
    for i in range(nrows):
        row = planes[:, :, i].copy()
        raw = row.view(np.uint8)
        counts = np.bitwise_count(raw)
        upto = counts.cumsum(axis=1, dtype=np.uint32)
        j = draws[i] % upto[:, -1]
        byte = (upto > j[:, None]).argmax(axis=1)
        at = first_byte + byte
        j -= upto.take(at) - counts.take(at)
        p = pivots[i] = 8 * byte + _SELECT[raw.take(at), j]
        sel = flat.take(first_word + (p >> 6), axis=0)
        sel >>= (p & 63).astype(np.uint64)[:, None]
        sel &= np.uint64(1)
        planes ^= np.multiply(sel[:, None, :], row[:, :, None], out=update)
        planes[:, :, i] = row
    return planes, pivots


def _reduce(fs: np.ndarray, planes: np.ndarray, pivots: np.ndarray):
    """Every function of ``fs`` reduced by each sweep's rows, a step at a time.

    Yields (sweeps, len(fs), words) arrays for consecutive steps of the
    block's sweeps.  A sweep's rows D_i are clear at each other's pivots
    p_i, so f reduces to f + sum of f[p_i] D_i, read off f itself: a linear
    map of f's bits at the pivots, through the Four Russians tables of
    ``subset_tables``.  A sweep's rows go in groups of ``width``, in row
    order, the largest of 1, 2, 4 and 8 with 2^width at most the function
    count and width at most the row count, after Albrecht, Bard and Hart's
    choice of log2 of the row count; so the tables grow with the rows, not
    with the truth tables' length.  A step's reduced functions take a
    quarter of ``_BLOCK_BYTES``, and so do the tables of a step's groups
    built at once (at least one group).
    """
    count, nwords = fs.shape
    nsweeps, _, nrows = planes.shape
    width = max(w for w in (1, 2, 4, 8) if w == 1 or (count >> w and w <= nrows))
    step = max(1, _BLOCK_BYTES // (32 * count * nwords))
    # the bytes of the functions, one row per byte position
    raw = np.ascontiguousarray(fs.view(np.uint8).T)
    for lo in range(0, nsweeps, step):
        hi = min(lo + step, nsweeps)
        span = width * max(1, _BLOCK_BYTES // (4 * (hi - lo) * 8 * nwords << width))
        out = np.repeat(fs[None], hi - lo, axis=0)
        for r in range(0, nrows, span):
            # entry [v, s] of a group's table is for sweep s: (groups, 2^width, sweeps, words)
            tables = subset_tables(planes[lo:hi, :, r : r + span].transpose(2, 0, 1), width)
            indices = _pivot_indices(raw, pivots[r : r + span, lo:hi], width)
            xor_lookup(tables.reshape(len(tables), -1, nwords), indices, out)
        yield out


def _pivot_indices(raw: np.ndarray, at: np.ndarray, width: int):
    """Each group's indices into its flat table, (sweeps, functions), in turn.

    ``at`` holds the pivots of a run of rows, (rows, sweeps), and ``raw``
    the functions' bytes, one row per byte position.  A function's entry in
    a group has bit j set when it is set at the group's j-th pivot, and
    sweep s folds in as entry * sweeps + s.  A short last group's pivots
    are padded with 0, as its missing rows are zero.  The groups are made
    a quarter of ``_BLOCK_BYTES`` at a time, or one at a time if larger.
    """
    sweeps = at.shape[1]
    at = np.pad(at, ((0, -len(at) % width), (0, 0))).reshape(-1, width, sweeps)
    # per group: the bits, their weighted copy, and the entries before and
    # after they widen to intp
    batch = max(1, _BLOCK_BYTES // (4 * sweeps * raw.shape[1] * (2 * width + 9)))
    sweep = np.arange(sweeps)[:, None]
    for g in range(0, len(at), batch):
        group = at[g : g + batch]
        bits = (raw[group >> 3] & _BIT[group & 7, None]) != 0
        index = np.bitwise_or.reduce(bits * _BIT[:width, None, None], axis=1) * np.intp(sweeps)
        index += sweep
        yield from index


def _row_bytes(m: int) -> int:
    """Bytes per truth table in the probe's state: whole 64-bit words."""
    return 8 * max(1, (1 << m) >> 6)


def _pack(vals: Sequence[int], nbytes: int) -> np.ndarray:
    """Truth tables as the rows of a little-endian uint64 array."""
    raw = b"".join(v.to_bytes(nbytes, "little") for v in vals)
    return np.frombuffer(raw, dtype=_WORD).reshape(len(vals), nbytes // 8)


def _weights(words: np.ndarray) -> np.ndarray:
    """Weights of packed truth tables: popcounts summed over the last axis.

    The sum goes one word at a time into one uint64 array, which is several
    times faster than ``sum`` over that axis.  ``probe_batch`` keeps every
    weight in uint64: numpy promotes a mix with int64 to float64.
    """
    total = np.bitwise_count(words[..., 0]).astype(np.uint64)
    for w in range(1, words.shape[-1]):
        total += np.bitwise_count(words[..., w])
    return total


def _unpack(words: np.ndarray, nbytes: int) -> list[int]:
    """The rows of a ``_pack``ed array as ints."""
    raw = words.tobytes()
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def _assert_coset_preserved(rows_now, fs_now, orig_rows, orig_tts):
    if gf2_rank(rows_now) != len(orig_rows):
        raise AssertionError("working matrix lost rank")
    if gf2_rank(list(orig_rows) + list(rows_now)) != len(orig_rows):
        raise AssertionError("working matrix left the row space")
    for f_now, orig_tt in zip(fs_now, orig_tts):
        if gf2_rank(list(orig_rows) + [f_now ^ orig_tt]) != len(orig_rows):
            raise AssertionError("working function left its coset")


def exact_nonlinearity(k: int, m: int, f: BooleanFunction) -> int:
    """Exact coset-leader weight: Walsh for k = 1, enumeration when it fits."""
    if f.m != m:
        raise ValueError("dimension mismatch")
    if k == 1:
        return _first_order_nl(f)
    dim = rm_dimension(k, m)
    if (1 << dim) > DEFAULT_ENUM_GUARD:
        raise InfeasibleError(
            f"RM({k},{m}) has 2^{dim} codewords, "
            f"enumeration guard allows {DEFAULT_ENUM_GUARD}"
        )
    return _coset_leader_weight(f.tt, rm_generator_matrix(k, m).rows)


def _coset_leader_weight(tt: int, rows: Sequence[int]) -> int:
    """Smallest weight of tt + c over the codewords c spanned by rows.

    The codewords are walked in Gray-code order, one row XOR per step.
    """
    best = tt.bit_count()
    c = 0
    for i in range(1, 1 << len(rows)):
        c ^= rows[(i & -i).bit_length() - 1]
        w = (tt ^ c).bit_count()
        if w < best:
            best = w
            if best == 0:
                break
    return best


def covering_radius_exact(k: int, m: int) -> int:
    """Max coset-leader weight over all cosets of RM(k,m), by full enumeration.

    Coset representatives are the ANF vectors supported on monomials of
    degree above k.  The k = 1 case batches the Walsh spectra of whole blocks
    of cosets; the general case enumerates codewords per coset and is guarded
    by total work.
    """
    dim = rm_dimension(k, m)
    n = 1 << m
    n_cosets = 1 << (n - dim)
    if n_cosets > DEFAULT_COSET_GUARD:
        raise InfeasibleError(
            f"2^{n - dim} cosets exceed the guard {DEFAULT_COSET_GUARD}"
        )
    free_masks = [mask for mask in range(n) if mask.bit_count() > k]
    assert len(free_masks) == n - dim
    if k == 1:
        return _radius_first_order_batched(m, free_masks)
    total_work = n_cosets * (1 << dim)
    if total_work > DEFAULT_ENUM_GUARD * 16:
        raise InfeasibleError(
            f"coset enumeration needs {n_cosets} x 2^{dim} codeword scans"
        )
    rows = rm_generator_matrix(k, m).rows
    radius = 0
    anf = 0
    for i in range(n_cosets):
        if i:
            anf ^= 1 << free_masks[(i & -i).bit_length() - 1]
        radius = max(radius, _coset_leader_weight(bf.mobius_transform(anf, m), rows))
    return radius


def _radius_first_order_batched(m: int, free_masks: list[int]) -> int:
    # a column per coset, a row per point; int8 holds |WHT| <= 2^m for m <= 5
    n = 1 << m
    n_free = len(free_masks)
    batch = 1 << min(n_free, 18)
    dtype = np.int8 if m <= 5 else np.int32
    radius = 0
    base_idx = np.arange(batch, dtype=np.int64)
    for start in range(0, 1 << n_free, batch):
        idx = start + base_idx
        anf = np.zeros((n, batch), dtype=dtype)
        for j, mask in enumerate(free_masks):
            anf[mask] = (idx >> j) & 1
        w = bf.wht(1 - 2 * bf.mobius(anf))
        radius = max(radius, n // 2 - int(np.abs(w).max(axis=0).min()) // 2)
    return radius


def relative_rho(
    k: int,
    t: int,
    m: int,
    reps,
    *,
    probe_iter: int = 1 << 16,
    seed: int = 0,
) -> tuple[int, bool]:
    """Covering radius of RM(k,m) relative to RM(t,m), over representatives.

    Exact per-representative nonlinearities give a certified value; where
    enumeration is infeasible the probe supplies upper-bound evidence only
    and the result is flagged uncertified.
    """
    if t <= k:
        return 0, True
    if tuple(reps.space.params) != (k + 1, t, m):
        raise ValueError(f"representatives must classify ({k + 1},{t},{m})")
    certified = True
    value = 0
    for fn in reps.rep_functions():
        lift = fn.lift()
        try:
            nl = exact_nonlinearity(k, m, lift)
        except InfeasibleError:
            certified = False
            nl = nl_probe(k, m, lift, probe_iter, 0, seed).best_weight
        if nl > value:
            value = nl
    return value, certified


# --- covering radius bound bookkeeping ---------------------------------------


@dataclass
class Bound:
    lo: int
    hi: int
    provenance: str = ""

    def tighten_lo(self, v: int, why: str) -> bool:
        if v > self.lo:
            self.lo = v
            self.provenance += f" lo:{why}"
            return True
        return False

    def tighten_hi(self, v: int, why: str) -> bool:
        if v < self.hi:
            self.hi = v
            self.provenance += f" hi:{why}"
            return True
        return False


class InconsistentTableError(ValueError):
    """A derived lower bound exceeded an upper bound."""


@dataclass
class RadiusTable:
    """Known or derived rho(k,m) intervals, plus relative rho_t(k,m) entries."""

    absolute: dict = field(default_factory=dict)
    relative: dict = field(default_factory=dict)

    def set_exact(self, k: int, m: int, value: int, provenance: str = "input") -> None:
        self.absolute[(k, m)] = Bound(value, value, provenance)

    def set_interval(self, k, m, lo, hi, provenance: str = "input") -> None:
        self.absolute[(k, m)] = Bound(lo, hi, provenance)

    def set_relative(self, k, t, m, lo, hi=None, provenance: str = "input") -> None:
        self.relative[(k, t, m)] = Bound(lo, hi if hi is not None else lo, provenance)

    def bound(self, k: int, m: int) -> Optional[Bound]:
        return self.absolute.get((k, m))

    def copy(self) -> "RadiusTable":
        out = RadiusTable()
        out.absolute = {key: Bound(b.lo, b.hi, b.provenance) for key, b in self.absolute.items()}
        out.relative = {key: Bound(b.lo, b.hi, b.provenance) for key, b in self.relative.items()}
        return out


def bounds_propagate(table: RadiusTable) -> RadiusTable:
    """Closure of the interval table under the radius inequalities.

    Uses the doubling bound rho(k,m) >= 2 rho(k,m-1), the restriction bound
    rho(k,m) >= rho(k-1,m-1), the addition bound
    rho(k,m) <= rho(k,m-1) + rho(k-1,m-1), and the relative split
    rho_t(k,m) <= rho(k,m) <= rho_t(k,m) + rho(t,m).  Raises on any interval
    that ends up empty.
    """
    out = table.copy()
    for (k, t, m) in out.relative:
        if (k, m) not in out.absolute:
            out.absolute[(k, m)] = Bound(0, 1 << m, "init")
    changed = True
    while changed:
        changed = False
        for (k, m), b in list(out.absolute.items()):
            up = out.absolute.get((k, m + 1))
            if up is not None:
                changed |= up.tighten_lo(2 * b.lo, f"2*rho({k},{m})")
                changed |= b.tighten_hi(up.hi // 2, f"rho({k},{m + 1})/2")
            diag = out.absolute.get((k + 1, m + 1))
            if diag is not None:
                changed |= diag.tighten_lo(b.lo, f"rho({k},{m})")
                changed |= b.tighten_hi(diag.hi, f"rho({k + 1},{m + 1})")
            side = out.absolute.get((k - 1, m))
            if side is not None and up is not None:
                changed |= up.tighten_hi(
                    b.hi + side.hi, f"rho({k},{m})+rho({k - 1},{m})"
                )
                changed |= b.tighten_lo(
                    up.lo - side.hi, f"rho({k},{m + 1})-rho({k - 1},{m})"
                )
                changed |= side.tighten_lo(
                    up.lo - b.hi, f"rho({k},{m + 1})-rho({k},{m})"
                )
        for (k, t, m), rb in list(out.relative.items()):
            ab = out.absolute.get((k, m))
            tb = out.absolute.get((t, m))
            if ab is not None:
                changed |= ab.tighten_lo(rb.lo, f"rho_{t}({k},{m})")
                changed |= rb.tighten_hi(ab.hi, f"rho({k},{m})")
            if ab is not None and tb is not None:
                changed |= ab.tighten_hi(
                    rb.hi + tb.hi, f"rho_{t}({k},{m})+rho({t},{m})"
                )
        for key, b in list(out.absolute.items()) + list(out.relative.items()):
            if b.lo > b.hi:
                raise InconsistentTableError(
                    f"entry {key} has empty interval [{b.lo},{b.hi}]"
                    f" (provenance:{b.provenance})"
                )
    return out


# --- odd-weight reduction and representative scans ----------------------------


def odd_weight_reduction(h: BooleanFunction) -> int:
    """The point a with h + dirac(a) of degree <= m-2, for odd-weight h.

    An odd-weight function has full degree and its top ANF coefficients
    match those of a single dirac spike, which is read off directly.
    """
    if bf.weight(h) % 2 == 0:
        raise ValueError("function has even weight")
    m = h.m
    anf = bf.to_anf(h).coeffs
    full = (1 << m) - 1
    a = 0
    for i in range(m):
        abar = (anf >> (full ^ (1 << i))) & 1
        a |= (abar ^ 1) << i
    return a


@dataclass
class ScanEntry:
    index: int
    shift: Optional[int]
    result: ProbeResult


@dataclass
class ScanReport:
    k: int
    limit: int
    entries: list[ScanEntry]

    @property
    def found(self) -> list[ScanEntry]:
        return [e for e in self.entries if e.result.found]

    @property
    def not_found(self) -> list[ScanEntry]:
        return [e for e in self.entries if not e.result.found]


def scan_representatives(
    k: int,
    reps,
    limit: int,
    iter_budget: int,
    *,
    seed: int,
    dirac_translates: bool = False,
    jobs: int = 1,
) -> ScanReport:
    """Probe every representative (optionally every dirac translate of it).

    Partitions the representatives into those with an exhibited coset member
    of weight at most ``limit`` and those where the budget found none.  All
    functions of the scan ride one matrix walk seeded by ``seed`` (see
    ``_ScanWalk.results``), so every entry equals ``nl_probe`` on it alone
    with ``seed``, whatever the chunking or the number of jobs.
    """
    m = reps.space.m
    walk = _ScanWalk(
        k,
        m,
        [fn.lift().tt for fn in reps.rep_functions()],
        tuple(range(1 << m)) if dirac_translates else (None,),
        iter_budget,
        limit,
        seed,
    )
    entries = [ScanEntry(*walk.origin(j), r) for j, r in enumerate(walk.results(jobs))]
    return ScanReport(k, limit, entries)


@dataclass(frozen=True)
class _ScanWalk:
    """The seeded probe walk of a scan over its flat function list.

    Representative i's translates occupy indices i*len(shifts) up to
    (i+1)*len(shifts).  A chunk is a range of indices whose truth tables are
    built only when it is probed, so a full dirac scan never holds them all.
    """

    k: int
    m: int
    lifts: list[int]
    shifts: tuple[Optional[int], ...]
    iter_budget: int
    limit: int
    seed: int

    def __len__(self) -> int:
        return len(self.lifts) * len(self.shifts)

    def origin(self, j: int) -> tuple[int, Optional[int]]:
        idx, s = divmod(j, len(self.shifts))
        return idx, self.shifts[s]

    def probe(self, chunk: range) -> list[ProbeResult]:
        tts = []
        for j in chunk:
            idx, shift = self.origin(j)
            tts.append(self.lifts[idx] if shift is None else self.lifts[idx] ^ (1 << shift))
        return probe_batch(self.k, self.m, tts, self.iter_budget, self.limit, self.seed)

    def results(self, jobs: int) -> list[ProbeResult]:
        """The result of every function, in order, probed chunk by chunk.

        The functions are cut into near-equal chunks of at most
        ``_CHUNK_BITS`` packed bits, and into at least ``jobs`` chunks while
        there are that many functions; each chunk is probed with ``seed``.
        A function's result depends only on the sweeps up to its first hit,
        each drawn from (seed, sweep index), so it does not depend on the
        chunking.
        """
        n = len(self)
        pieces = max(-(-n // max(1, _CHUNK_BITS // (8 * _row_bytes(self.m)))), min(jobs, n))
        chunks = [range(i * n // pieces, (i + 1) * n // pieces) for i in range(pieces)]
        if jobs > 1 and len(chunks) > 1:
            from .parallel import probe_batch_parallel

            batches = probe_batch_parallel(self, chunks, jobs)
        else:
            batches = map(self.probe, chunks)
        return [r for batch in batches for r in batch]
