"""The benchmark's tracer names library functions: Tracer.install looks up each
name in TARGETS on its dyck312 module, and the level_totals hook binds its
matrix argument by name. Renaming or deleting one of them breaks
`bench/run.py --trace`, so this suite pins the names the tracer reads."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from dyck312 import prodmat

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # load bench/ without writing to it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_target_is_a_library_function(tracer):
    for module_name, functions in tracer.TARGETS.items():
        module = importlib.import_module(f"dyck312.{module_name}")
        for fn_name in functions:
            assert inspect.isfunction(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_every_hook_is_on_a_target(tracer):
    names = {f"{m}.{f}" for m, fs in tracer.TARGETS.items() for f in fs}
    assert set(tracer.HOOKS) <= names


def test_level_totals_hook_binds_matrix(tracer):
    assert "prodmat.level_totals" in tracer.HOOKS
    assert "matrix" in inspect.signature(prodmat.level_totals).parameters
