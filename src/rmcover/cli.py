"""Command-line surface: oracle/classify/invariant/equiv/nl/radius.

Every randomized run records its seed and the digest of its configuration;
re-running with the same arguments reproduces the report byte for byte.
The module imports only the standard library; each command imports the
modules it runs, so ``oracle`` never loads the probe and ``--version``
never loads numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from random import Random

from . import __version__
from .common import (
    DEFAULT_ITER_BUDGET,
    InfeasibleError,
    SpaceTooLargeError,
    write_text_atomic,
)


def _space_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected s,t,m")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


# arguments that do not change a result: where it goes and how many workers
_NOT_CONFIG = {"func", "out", "report", "jobs"}


def _config_digest(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _NOT_CONFIG}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _report_header(args: argparse.Namespace, seed=None) -> list[str]:
    lines = [f"# rmcover {__version__}", f"# config {_config_digest(args)}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    return lines


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _read_functions(path: str, m: int, convert=lambda f: f) -> list:
    """convert(f) of each function line of the file; a line that fails to
    parse or to convert is reported as path:line."""
    from . import boolfun as bf

    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(convert(bf.parse_function(line, m)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def _window_function(space, f, name: str):
    """The element of the window whose ANF is that of f; refuses any f with
    a monomial outside the window's degrees."""
    from . import boolfun as bf

    anf = bf.mobius_transform(f.tt, space.m)
    if anf & ~space.support:
        raise ValueError(f"{name} lies outside the window")
    return space.function(space.key_from_anf(anf))


def _count(what: str, least: int = 1):
    """Argparse type of an integer option of at least ``least`` (0 or 1);
    ``what`` names the value in errors.  The default of ``--jobs``,
    RMCOVER_JOBS or 1, passes through here too, so a bad environment value
    fails like a bad flag."""
    kind = "a positive integer" if least else "a non-negative integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {what} is {kind}")
        return value

    return parse


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_count("the worker count (--jobs or RMCOVER_JOBS)"),
        default=os.environ.get("RMCOVER_JOBS", "1"),
    )


# --- subcommands -------------------------------------------------------------


def _cmd_oracle(args) -> int:
    from .classify import orbit_enumerate, save_classification

    cls = orbit_enumerate(args.s, args.t, args.m)
    save_classification(cls, args.out)
    print(f"classes {cls.n_classes} -> {args.out}")
    return 0


def _cmd_classify(args) -> int:
    from .classify import classify_pipeline, load_classification, save_classification

    sub = load_classification(args.sub)
    cls, report = classify_pipeline(args.s, args.t, args.m, sub, jobs=args.jobs)
    save_classification(cls, args.out)
    # the labels run no equivalence search; the line keeps its format
    lines = _report_header(args, args.seed)
    lines.append(
        f"classes {report.n_classes} buckets {report.n_buckets} "
        f"cover {report.reduced_cover_size} (initial {report.initial_cover_size}) "
        "equiv-calls 0"
    )
    lines.append(
        f"walk-gens {report.walk_gens} "
        f"walk-back lower {report.depth_lower} cover {report.depth_cover}"
    )
    _emit(lines, args.report)
    print(f"classes {report.n_classes} -> {args.out}")
    return 0


def _cmd_invariant(args) -> int:
    from .classify import load_classification
    from .invariant import class_maps, j_hat_signatures, j_signatures
    from .quotient import quotient_space

    s, t, m = args.space
    sub = load_classification(args.sub)
    space = quotient_space(s, t, m)
    lines = _report_header(args)
    lines.append(f"# classification {sub.digest}")
    keys = _read_functions(
        args.infile, m, lambda f: _window_function(space, f, "input function").key
    )
    maps = class_maps(space, keys, sub)
    for sj, sh in zip(j_signatures(maps, sub.digest), j_hat_signatures(maps, sub.digest)):
        pairs = ",".join(f"{v}:{c}" for v, c in sj.pairs)
        hpairs = ",".join(f"{v}:{c}" for v, c in sh.pairs)
        lines.append(f"J {pairs}")
        lines.append(f"Jhat {hpairs}")
    _emit(lines, args.out)
    return 0


def _cmd_equiv(args) -> int:
    from . import boolfun as bf
    from .classify import load_classification
    from .equivalence import EQUIV, equivalent
    from .quotient import quotient_space

    s, t, m = args.space
    sub = load_classification(args.sub)
    space = quotient_space(s, t, m)
    f = _window_function(space, bf.parse_function(args.f, m), repr(args.f))
    g = _window_function(space, bf.parse_function(args.g, m), repr(args.g))
    out = equivalent(f, g, sub, iter_budget=args.iter, rng=Random(args.seed))
    lines = _report_header(args, args.seed)
    lines.append(f"verdict {out.verdict}")
    lines.append(f"candidates {out.candidates_tested} budget-used {out.budget_used}")
    if out.verdict == EQUIV:
        w = out.witness
        rows = ",".join(format(r, "x") for r in w.rows)
        lines.append(f"witness {rows};{w.trans:x}")
    _emit(lines, args.out)
    return 0


def _cmd_nl_probe(args) -> int:
    from .nonlinearity import _ScanWalk

    fns = _read_functions(args.infile, args.m)
    # the scan's chunked walk: each line is nl_probe on that function alone
    walk = _ScanWalk(
        args.k, args.m, [f.tt for f in fns], (None,), args.iter, args.limit, args.seed
    )
    results = walk.results(jobs=1)
    lines = _report_header(args, args.seed)
    for i, r in enumerate(results):
        lines.append(
            f"fn {i} found {str(r.found).lower()} best {r.best_weight} "
            f"passes {r.passes_used} seed {args.seed}"
        )
    _emit(lines, args.out)
    return 0


def _cmd_nl_exact(args) -> int:
    from .nonlinearity import exact_nonlinearity

    fns = _read_functions(args.infile, args.m)
    lines = _report_header(args)
    for i, f in enumerate(fns):
        nl = exact_nonlinearity(args.k, args.m, f)
        lines.append(f"fn {i} nl {nl}")
    _emit(lines, args.out)
    return 0


def _cmd_nl_scan(args) -> int:
    from .classify import load_classification
    from .nonlinearity import scan_representatives

    reps = load_classification(args.reps)
    report = scan_representatives(
        args.k,
        reps,
        args.limit,
        args.iter,
        seed=args.seed,
        dirac_translates=args.dirac,
        jobs=args.jobs,
    )
    lines = _report_header(args, args.seed)
    for e in report.entries:
        shift = "-" if e.shift is None else format(e.shift, "x")
        lines.append(
            f"rep {e.index} shift {shift} found {str(e.result.found).lower()} "
            f"best {e.result.best_weight} passes {e.result.passes_used}"
        )
    lines.append(f"found {len(report.found)} not-found {len(report.not_found)}")
    _emit(lines, args.out)
    return 0


def _parse_radius_table(path: str):
    from .nonlinearity import RadiusTable

    table = RadiusTable()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "rho":
                    k, m = int(parts[1]), int(parts[2])
                    lo = int(parts[3])
                    hi = int(parts[4]) if len(parts) > 4 else lo
                    table.set_interval(k, m, lo, hi, provenance=f"{path}:{lineno}")
                elif parts[0] == "rho_rel":
                    k, t, m = int(parts[1]), int(parts[2]), int(parts[3])
                    lo = int(parts[4])
                    hi = int(parts[5]) if len(parts) > 5 else lo
                    table.set_relative(k, t, m, lo, hi, provenance=f"{path}:{lineno}")
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return table


def _cmd_radius(args) -> int:
    from .nonlinearity import bounds_propagate

    table = _parse_radius_table(args.table)
    closed = bounds_propagate(table)
    lines = _report_header(args)
    for (k, m), b in sorted(closed.absolute.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        tag = "exact" if b.lo == b.hi else "interval"
        lines.append(f"rho {k} {m} {b.lo} {b.hi} {tag}")
    for (k, t, m), b in sorted(closed.relative.items()):
        lines.append(f"rho_rel {k} {t} {m} {b.lo} {b.hi}")
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmcover",
        description="Affine classification of Boolean function windows and "
        "Reed-Muller covering radii",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("oracle", help="exact classification by full-space BFS")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("classify", help="cover set + P-orbit label pipeline")
    sub2 = p.add_subparsers(dest="subcommand", required=True)
    pr = sub2.add_parser("run")
    pr.add_argument("--s", type=int, required=True)
    pr.add_argument("--t", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.add_argument("--sub", required=True, help="classification file of the lower window")
    pr.add_argument("--out", required=True)
    pr.add_argument("--report", default=None)
    kept = "ignored; kept so that older command lines and their config digests stay valid"
    pr.add_argument(
        "--budget-iter",
        type=_count("the search budget per pair"),
        default=DEFAULT_ITER_BUDGET,
        help=kept,
    )
    pr.add_argument(
        "--budget-retries",
        type=_count("the number of searches per pair"),
        default=3,
        help=kept,
    )
    pr.add_argument("--seed", type=int, default=0, help=kept)
    _add_jobs_argument(pr)
    pr.set_defaults(func=_cmd_classify)

    p = subs.add_parser("invariant", help="distribution invariants of input functions")
    p.add_argument("--space", type=_space_triple, required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariant)

    p = subs.add_parser("equiv", help="tri-state equivalence of two functions")
    p.add_argument("--space", type=_space_triple, required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument(
        "--iter", type=_count("the search budget"), default=DEFAULT_ITER_BUDGET
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_equiv)

    p = subs.add_parser("nl", help="nonlinearity probe / exact / scan")
    weight_limit = _count("the weight limit", least=0)
    sub2 = p.add_subparsers(dest="subcommand", required=True)
    pp = sub2.add_parser("probe")
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--m", type=int, required=True)
    pp.add_argument("--limit", type=weight_limit, required=True)
    pp.add_argument("--iter", type=_count("the number of passes"), default=1 << 16)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--in", dest="infile", required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_nl_probe)
    pe = sub2.add_parser("exact")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--m", type=int, required=True)
    pe.add_argument("--in", dest="infile", required=True)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=_cmd_nl_exact)
    ps = sub2.add_parser("scan")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--limit", type=weight_limit, required=True)
    ps.add_argument("--reps", required=True)
    ps.add_argument("--iter", type=_count("the number of passes"), default=1 << 16)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--dirac", action="store_true", help="scan all dirac translates")
    _add_jobs_argument(ps)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_nl_scan)

    p = subs.add_parser("radius", help="covering-radius bound propagation")
    sub2 = p.add_subparsers(dest="subcommand", required=True)
    pb = sub2.add_parser("bounds")
    pb.add_argument("--table", required=True)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=_cmd_radius)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # InconsistentTableError and SingularMatrixError are ValueErrors
    except (ValueError, OSError, SpaceTooLargeError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
