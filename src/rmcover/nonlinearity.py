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
from random import Random
from typing import Optional, Sequence

import numpy as np

from . import boolfun as bf
from .boolfun import BooleanFunction
from .group import gf2_rank

DEFAULT_ENUM_GUARD = 1 << 22
DEFAULT_COSET_GUARD = 1 << 26
_PIVOT_RETRY_CAP = 1 << 12
# matrix rows per block of a probe sweep, a multiple of 8: at k = 4, m = 8 the
# walk of a few functions runs fastest near 16 to 24 rows, and 24 puts the
# 22 rows of RM(2,6) in a single block
_BLOCK_ROWS = 24
_WORD = np.dtype("<u8")
# the last doubling of _eliminate as two gathers from its flat (groups, 16, 2)
# nibble tables: entry 16*h + l of a group's table is its high-nibble entry h
# plus its low-nibble entry l
_HIGH_NIBBLE = (32 * np.arange(_BLOCK_ROWS // 8)[:, None] + 2 * (np.arange(256) >> 4) + 1).ravel()
_LOW_NIBBLE = (32 * np.arange(_BLOCK_ROWS // 8)[:, None] + 2 * (np.arange(256) & 15)).ravel()
# packed truth-table bits per scan walk: at k = 4, m = 8 the blocked walk's
# throughput levels off near 16384 functions of 256 bits
_CHUNK_BITS = 1 << 22


class InfeasibleError(RuntimeError):
    """Exact computation is out of reach for these parameters."""


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
    rows = []
    for mask in masks:
        if mask.bit_count() > k:
            continue
        tt = 0
        for x in range(1 << m):
            if x & mask == mask:
                tt |= 1 << x
        rows.append(tt)
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
    rng: Random,
    *,
    check_coset: bool = False,
) -> ProbeResult:
    """Randomized row-elimination probe for small-weight coset members.

    Each pass sweeps every row of a working copy of the RM(k,m) generator
    matrix: a random pivot column is drawn among the set positions of the
    row, the row is eliminated from the rows below it, and from f when f is
    set at the pivot.  Row operations keep the matrix row-equivalent to the
    generator matrix and keep f inside its original coset, so every recorded
    weight upper-bounds the nonlinearity.  Stops as soon as a weight at most
    ``limit`` appears.

    This is ``probe_batch`` on a batch of one: a batch probed with
    ``Random(s)`` gives every function exactly the result of ``nl_probe``
    on it alone with ``Random(s)``.
    """
    if f.m != m:
        raise ValueError("dimension mismatch")
    return probe_batch(k, m, [f.tt], iter_budget, limit, rng, check_coset=check_coset)[0]


def probe_batch(
    k: int,
    m: int,
    tts: Sequence[int],
    iter_budget: int,
    limit: int,
    rng: Random,
    *,
    check_coset: bool = False,
) -> list[ProbeResult]:
    """Probe a batch of truth tables through one shared matrix walk.

    The pivots depend only on the working matrix and the rng, never on the
    functions, so for a fixed rng a sweep is a GF(2)-linear map of f and all
    functions can share it.  The state is one uint64 array: the matrix rows,
    then the functions, one truth table per row of 64-bit words.

    A sweep takes the matrix rows in blocks of ``_BLOCK_ROWS``.  Inside a
    block, as Python ints, row r is eliminated by the block's earlier rows,
    its pivot is drawn, and it becomes a matrix row; the block also keeps
    its rows reduced, D_j set at pivot j and clear at the block's other
    pivots.  Every row below the block, matrix row or function, then gets
    one numpy update, row ^= sum of row[p_j] * D_j.  That sum makes the only
    element of row + span(block) that is clear at all of the block's
    pivots, which is also what eliminating by the block's rows one at a
    time leaves, so the walk is the row-by-row one.

    A pivot is ``rng.getrandbits(m + 1)`` drawn until it is below 2^m and
    set in the row, which is the draw of ``rng.randrange(2**m)`` on CPython
    3.10+; after ``_PIVOT_RETRY_CAP`` in-range misses it is a choice among
    the row's set bits.  A function's result is frozen at the pass where it
    first reaches ``limit``; the walk stops once none is left or the budget
    is spent.
    """
    gen = rm_generator_matrix(k, m)
    n = 1 << m
    if any(tt >> n for tt in tts):
        raise ValueError(f"truth table wider than 2^{m} bits")
    nrows = gen.nrows
    count = len(tts)
    nbytes = _row_bytes(m)
    rows = list(gen.rows)
    state = _pack([*rows, *tts], nbytes).copy()
    # the block's reduced rows D_j, packed into one int at these offsets
    shifts = [8 * nbytes * j for j in range(_BLOCK_ROWS)]
    ones = sum(1 << shift for shift in shifts)
    grid = np.zeros((_BLOCK_ROWS // 8, 2, 8, nbytes // 8), dtype=_WORD)
    bit = [1 << p for p in range(n)]
    width = m + 1
    retry_cap = _PIVOT_RETRY_CAP
    draw = rng.getrandbits
    best = [tt.bit_count() for tt in tts]
    passes = [0] * count
    live = [b for b in range(count) if best[b] > limit]
    done = 0
    while live and done < iter_budget:
        done += 1
        for lo in range(0, nrows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, nrows)
            block = []
            pivots = []
            masks = []
            reduced = 0
            # the first block's rows are the last sweep's; each later block reads
            # its rows from the array, where the blocks before it updated them
            current = rows[:hi] if lo == 0 else _unpack(state[lo:hi], nbytes)
            for shift, row in zip(shifts, current):
                for mask, e in zip(masks, block):
                    if row & mask:
                        row ^= e
                misses = 0
                while True:
                    p = draw(width)
                    if p < n:
                        if row & bit[p]:
                            break
                        misses += 1
                        if misses == retry_cap:
                            # pathological luck: an explicit choice among the set bits
                            p = rng.choice(_set_positions(row))
                            break
                # clear the pivot from the earlier D_j, one multiply for all of them
                sel = reduced >> p & ones
                if sel:
                    reduced ^= sel * row
                reduced |= row << shift
                block.append(row)
                pivots.append(p)
                masks.append(bit[p])
            rows[lo:hi] = block
            if hi < nrows + count:
                _eliminate(state[hi:], pivots, reduced, grid)
        if nrows > _BLOCK_ROWS:
            state[_BLOCK_ROWS:nrows] = _pack(rows[_BLOCK_ROWS:], nbytes)
        weights = np.bitwise_count(state[nrows:]).sum(axis=1).tolist()
        if check_coset:
            _assert_coset_preserved(rows, _unpack(state[nrows:], nbytes), gen.rows, tts)
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


def _eliminate(below: np.ndarray, pivots: list[int], reduced: int, grid: np.ndarray) -> None:
    """below ^= sum of below[p_j] * D_j over a block's pivots p_j and rows D_j.

    This is the Four Russians step of M4RI (Albrecht, Bard and Hart, ACM
    TOMS 37(1), 2010).  The D_j of ``reduced`` go to ``grid[:, 1]``, whose
    [:, 0] stays zero, and for each 8 of them two doublings and a pair of
    gathers build the table of all 256 sums; a row of ``below`` then takes
    one lookup per 8 pivots, indexed by its bits at them.  A short last
    block pads its pivots with zero byte masks, so those index bits stay clear.
    """
    groups, _, _, nwords = grid.shape
    pad = [0] * (_BLOCK_ROWS - len(pivots))
    # the byte of each pivot, then its bit in that byte
    where = [p >> 3 for p in pivots] + pad + [1 << (p & 7) for p in pivots] + pad
    where = np.array(where, dtype=np.uint8)
    bits = below.view(np.uint8)[:, where[:_BLOCK_ROWS]] & where[_BLOCK_ROWS:]
    index = np.packbits(bits.ravel(), bitorder="little").reshape(-1, groups)
    raw = reduced.to_bytes(64 * groups * nwords, "little")
    grid[:, 1] = np.frombuffer(raw, dtype=_WORD).reshape(groups, 8, nwords)
    t = grid
    for size in (4, 2):
        t = (t[:, :, None, 1::2] ^ t[:, None, :, ::2]).reshape(groups, -1, size, nwords)
    t = t.reshape(-1, nwords)
    t = (t.take(_HIGH_NIBBLE, axis=0) ^ t.take(_LOW_NIBBLE, axis=0)).reshape(groups, 256, nwords)
    update = t[0].take(index[:, 0], axis=0)
    for g in range(1, groups):
        update ^= t[g].take(index[:, g], axis=0)
    below ^= update


def _row_bytes(m: int) -> int:
    """Bytes per truth table in the probe's state: whole 64-bit words."""
    return 8 * max(1, (1 << m) >> 6)


def _pack(vals: Sequence[int], nbytes: int) -> np.ndarray:
    """Truth tables as the rows of a read-only little-endian uint64 array."""
    raw = b"".join(v.to_bytes(nbytes, "little") for v in vals)
    return np.frombuffer(raw, dtype=_WORD).reshape(len(vals), nbytes // 8)


def _unpack(words: np.ndarray, nbytes: int) -> list[int]:
    """The rows of a ``_pack``ed array as ints."""
    raw = words.tobytes()
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def _set_positions(val: int) -> list[int]:
    positions = []
    while val:
        low = val & -val
        positions.append(low.bit_length() - 1)
        val ^= low
    return positions


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
    # one column per coset, one row per point: butterflies become contiguous
    # row operations; WHT values stay within +-2^m so int8 suffices for m <= 5
    n = 1 << m
    n_free = len(free_masks)
    batch_bits = min(n_free, 18)
    batch = 1 << batch_bits
    dtype = np.int8 if m <= 5 else np.int32
    radius = 0
    base_idx = np.arange(batch, dtype=np.int64)
    for start in range(0, 1 << n_free, batch):
        idx = start + base_idx
        anf = np.zeros((n, batch), dtype=dtype)
        for j, mask in enumerate(free_masks):
            anf[mask] = (idx >> j) & 1
        for i in range(m):
            h = 1 << i
            for base in range(0, n, 2 * h):
                anf[base + h : base + 2 * h] ^= anf[base : base + h]
        w = bf.wht(1 - 2 * anf)
        nl = (n // 2) - np.max(np.abs(w), axis=0).astype(np.int64) // 2
        m_nl = int(nl.max())
        if m_nl > radius:
            radius = m_nl
    return radius


def relative_rho(
    k: int,
    t: int,
    m: int,
    reps,
    *,
    probe_iter: int = 1 << 16,
    rng: Optional[Random] = None,
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
    rng = rng or Random(0)
    certified = True
    value = 0
    for fn in reps.rep_functions():
        lift = fn.lift()
        try:
            nl = exact_nonlinearity(k, m, lift)
        except InfeasibleError:
            certified = False
            nl = nl_probe(k, m, lift, probe_iter, 0, rng).best_weight
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
    under ``Random(seed)``, whatever the chunking or the number of jobs.
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
        return probe_batch(self.k, self.m, tts, self.iter_budget, self.limit, Random(self.seed))

    def results(self, jobs: int) -> list[ProbeResult]:
        """The result of every function, in order, probed chunk by chunk.

        The functions are cut into near-equal chunks of at most
        ``_CHUNK_BITS`` packed bits, and into at least ``jobs`` chunks while
        there are that many functions; each chunk is probed under a fresh
        ``Random(seed)``.  A function's result depends only on the walk up
        to its first hit, so it does not depend on the chunking.
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
