"""Run a list of ``rmcover`` CLI commands in one process, optionally traced.

    python3 bench/tracer.py PLAN.json RESULT.json [--trace]

PLAN.json holds ``{"src": <path of the package root>, "steps": [{"label":
..., "argv": [...]}, ...]}``; each step calls ``rmcover.cli.main(argv)`` in
the current directory.  RESULT.json receives per step the exit code, the
wall time and, with ``--trace``, the spans and counts below.

Tracing installs timing wrappers around public functions of every module of
the package, from this file; the package itself is not edited.  A wrapper
replaces the function in every module namespace that binds it, because the
modules import each other's functions by name.  Spans are aggregated in
memory per step as (calls, total seconds, self seconds), self time being the
span's duration minus the time covered by its child spans, and written out
at the end.  Counts are taken from return values.  Pool workers started by
``--jobs`` inherit the wrappers but their spans stay in the workers and are
not collected.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import traceback

# (module, function) pairs timed as spans
SPANS = [
    ("cli", "main"),
    ("group", "compose"),
    ("quotient", "action_matrix"),
    ("quotient", "q_apply_affine"),
    ("quotient", "delta_membership"),
    ("classify", "orbit_enumerate"),
    ("classify", "reduce_cover_set"),
    ("classify", "class_of"),
    ("classify", "classify_pipeline"),
    ("classify", "load_classification"),
    ("classify", "save_classification"),
    ("invariant", "class_map"),
    ("equivalence", "equivalent"),
    ("equivalence", "candidate_checking"),
    ("nonlinearity", "nl_probe"),
    ("nonlinearity", "rm_generator_matrix"),
    ("nonlinearity", "scan_representatives"),
    ("parallel", "resolve_buckets_parallel"),
    ("parallel", "probe_batch_parallel"),
]
# hot leaf functions whose calls are only counted, to keep the overhead low
COUNTED = [("boolfun", "mobius_transform"), ("group", "gf2_rank")]

MODULES = [
    "boolfun", "group", "quotient", "classify", "invariant",
    "equivalence", "nonlinearity", "parallel", "cli",
]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # time covered by children, per open span

    def span(self, name, fn, on_return=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def take(self) -> dict:
        """Spans and counts since the last call; resets them in place."""
        out = {
            "spans": {k: list(v) for k, v in self.spans.items() if v[0]},
            "counts": {k: v for k, v in self.counts.items() if v},
        }
        for v in self.spans.values():
            v[:] = [0, 0.0, 0.0]
        for k in self.counts:
            self.counts[k] = 0
        return out

    # counts read from return values

    def on_equivalent(self, out, args):
        self.add("equivalence.candidates_tested", out.candidates_tested)
        if out.verdict == "Undefined":
            self.add("equivalence.undefined", 1)
        else:
            self.add("equivalence.decided", 1)

    def on_pipeline(self, result, args):
        report = result[1]
        self.add("classify.cover_size", report.reduced_cover_size)
        self.add("classify.buckets", report.n_buckets)

    def on_scan(self, report, args):
        self.add("nonlinearity.probes", len(report.entries))
        self.add("nonlinearity.found", len(report.found))
        self.add("nonlinearity.sweeps", sum(e.result.passes_used for e in report.entries))

    def on_save(self, result, args):
        self.add("classify.file_bytes", os.path.getsize(args[1]))


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module("rmcover")]
    modules += [importlib.import_module(f"rmcover.{name}") for name in MODULES]
    hooks = {
        "equivalent": tracer.on_equivalent,
        "classify_pipeline": tracer.on_pipeline,
        "scan_representatives": tracer.on_scan,
        "save_classification": tracer.on_save,
    }
    replacements = {}
    for mod_name, fn_name in SPANS:
        fn = getattr(importlib.import_module(f"rmcover.{mod_name}"), fn_name)
        replacements[id(fn)] = tracer.span(f"{mod_name}.{fn_name}", fn, hooks.get(fn_name))
    for mod_name, fn_name in COUNTED:
        fn = getattr(importlib.import_module(f"rmcover.{mod_name}"), fn_name)
        replacements[id(fn)] = tracer.counter(f"{mod_name}.{fn_name}.calls", fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and callable(value):
                setattr(mod, attr, wrapper)


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import rmcover.cli

    tracer = Tracer()
    if traced:
        install(tracer)
    steps = []
    for step in plan["steps"]:
        start = time.perf_counter()
        try:
            rc = rmcover.cli.main(step["argv"])
        except Exception:  # one failing step must not hide the others
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
        steps.append({"label": step["label"], "rc": rc, "wall_s": wall, **tracer.take()})
    with open(result_path, "w") as fh:
        json.dump({"traced": traced, "steps": steps}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
