"""The benchmark tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
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
