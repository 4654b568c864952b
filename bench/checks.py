"""Output checks for the benchmark, independent of the pipeline they check.

Each check reads an output file of the ``rmcover`` CLI, raises CheckError on
the first violated rule and otherwise returns the counts the run records.
The expected class counts are outside facts: 6 orbits on B(1,2,5) and 34 on
B(2,3,6), the latter matching X.-D. Hou's orbit count for AGL(6,2) acting on
R(3,6)/R(1,6).
"""

from __future__ import annotations

import hashlib
import re
from math import comb


class CheckError(ValueError):
    """An output broke one of the benchmark's rules."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_classification(text: str) -> dict:
    """Space, representative lines and stabilizer class indices of a file."""
    space = None
    reps = []
    stabilized = set()
    for line in text.splitlines():
        if line.startswith("#%space"):
            space = tuple(int(p) for p in line.split()[1:])
        elif line.startswith("R "):
            _, idx, size, anf = line.split(None, 3)
            _require(int(idx) == len(reps), f"class index {idx} out of order")
            reps.append((None if size == "-" else int(size), anf))
        elif line.startswith("S "):
            stabilized.add(int(line.split()[1]))
    _require(space is not None, "classification file has no space header")
    return {"space": space, "reps": reps, "stabilized": stabilized}


def check_oracle(text: str, space: tuple, n_classes: int) -> dict:
    """Oracle file: class count, orbit sizes summing to the window size,
    and stabilizer lines for every class."""
    cls = read_classification(text)
    _require(cls["space"] == space, f"oracle space {cls['space']} != {space}")
    reps = cls["reps"]
    _require(len(reps) == n_classes, f"oracle found {len(reps)} classes, expected {n_classes}")
    sizes = [size for size, _ in reps]
    _require(None not in sizes, "oracle file lacks orbit sizes")
    dim = _window_dim(*space)
    _require(sum(sizes) == 1 << dim, f"orbit sizes sum to {sum(sizes)}, not 2^{dim}")
    missing = sorted(set(range(n_classes)) - cls["stabilized"])
    _require(not missing, f"no stabilizer lines for classes {missing}")
    return {"classes": len(reps)}


_CLASSIFY_LINE = re.compile(
    r"^classes (\d+) buckets (\d+) cover (\d+) \(initial (\d+)\) equiv-calls (\d+)$"
)


def check_classify(report: str, cls_text: str, space: tuple, n_classes: int) -> dict:
    """Pipeline report and file: class count, no unresolved pair."""
    counts = None
    for line in report.splitlines():
        _require(not line.startswith("UNRESOLVED"), f"unresolved pair: {line}")
        match = _CLASSIFY_LINE.match(line)
        if match:
            _require(counts is None, "two summary lines in the classify report")
            classes, buckets, cover, initial, calls = map(int, match.groups())
            counts = {
                "classes": classes,
                "buckets": buckets,
                "cover": cover,
                "initial_cover": initial,
                "equiv_calls": calls,
            }
    _require(counts is not None, "classify report has no summary line")
    _require(
        counts["classes"] == n_classes,
        f"pipeline found {counts['classes']} classes, expected {n_classes}",
    )
    cls = read_classification(cls_text)
    _require(cls["space"] == space, f"pipeline space {cls['space']} != {space}")
    _require(
        len(cls["reps"]) == n_classes,
        f"pipeline file holds {len(cls['reps'])} classes, expected {n_classes}",
    )
    return counts


_SCAN_LINE = re.compile(
    r"^rep (\d+) shift (-|[0-9a-f]+) found (true|false) best (\d+) passes (\d+)$"
)
_SCAN_SUMMARY = re.compile(r"^found (\d+) not-found (\d+)$")


def check_scan(
    report: str, n_reps: int, m: int, k: int, limit: int, iters: int, dirac: bool
) -> dict:
    """Scan report: one line per function or translate, found exactly when
    best <= limit, full budget on every miss, and coset parity.

    Every RM(k,m) codeword with k < m has even weight and the scanned
    functions have degree below m, so best weights are even on a plain scan
    and odd on a dirac scan.
    """
    _require(k < m, "parity rule needs k < m")
    shifts = range(1 << m) if dirac else [None]
    expected = {(i, s) for i in range(n_reps) for s in shifts}
    seen = set()
    found = 0
    passes = 0
    summary = None
    parity = 1 if dirac else 0
    for line in report.splitlines():
        if line.startswith("#"):
            continue
        match = _SCAN_LINE.match(line)
        if match:
            idx, shift, hit, best, used = match.groups()
            key = (int(idx), None if shift == "-" else int(shift, 16))
            _require(key in expected, f"unexpected scan entry: {line}")
            _require(key not in seen, f"duplicate scan entry: {line}")
            seen.add(key)
            best, used, hit = int(best), int(used), hit == "true"
            _require(hit == (best <= limit), f"found flag disagrees with limit: {line}")
            _require(used <= iters, f"passes beyond the budget: {line}")
            _require(hit or used == iters, f"miss before the budget ran out: {line}")
            _require(best % 2 == parity, f"best weight has the wrong parity: {line}")
            found += hit
            passes += used
            continue
        match = _SCAN_SUMMARY.match(line)
        _require(match is not None and summary is None, f"unrecognized scan line: {line}")
        summary = tuple(map(int, match.groups()))
    _require(seen == expected, f"scan covers {len(seen)} of {len(expected)} entries")
    _require(
        summary == (found, len(seen) - found),
        f"summary {summary} disagrees with the entries",
    )
    return {"entries": len(seen), "found": found, "passes": passes}


def content_digest(text: str) -> str:
    """Digest of an output without its ``# config`` line, which hashes the
    command's own arguments."""
    kept = [line for line in text.split("\n") if not line.startswith("# config ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


def _window_dim(s: int, t: int, m: int) -> int:
    return sum(comb(m, d) for d in range(max(s, 0), t + 1))
