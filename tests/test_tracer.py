"""The benchmark tracer wraps package functions by name; each must exist,
and a traced plan must run through the hooks that read their results."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer_module()


@pytest.mark.parametrize("mod_name, fn_name", _TRACER.SPANS + _TRACER.COUNTED)
def test_traced_function_exists(mod_name, fn_name):
    module = importlib.import_module(f"rmcover.{mod_name}")
    assert callable(getattr(module, fn_name, None))


def test_traced_modules_exist():
    for name in _TRACER.MODULES:
        importlib.import_module(f"rmcover.{name}")


def test_traced_plan_runs_end_to_end(tmp_path):
    # the tracer's hooks read fields of the results they wrap; a traced
    # chain exercises every one of them
    plan = {
        "src": str(TRACER.parents[1] / "src"),
        "steps": [
            {"label": "oracle", "argv": ["oracle", "--s", "1", "--t", "2", "--m", "3",
                                         "--out", "b123.cls"]},
            {"label": "classify", "argv": ["classify", "run", "--s", "2", "--t", "3",
                                           "--m", "4", "--sub", "b123.cls",
                                           "--out", "b234.cls"]},
            {"label": "scan", "argv": ["nl", "scan", "--k", "1", "--limit", "2",
                                       "--iter", "32", "--reps", "b234.cls",
                                       "--out", "scan.report"]},
        ],
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "plan.json", "result.json", "--trace"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads((tmp_path / "result.json").read_text())["steps"]
    assert [(s["label"], s["rc"]) for s in steps] == [
        ("oracle", 0), ("classify", 0), ("scan", 0)
    ]
    assert steps[1]["counts"]["classify.buckets"] > 0
    assert steps[2]["counts"]["nonlinearity.probes"] == 5
