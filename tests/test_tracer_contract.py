"""The names the benchmark's tracer (perfbench/spans.py) wraps must stay
wrappable: a renamed function, a method turned into a property or a moved
``kind`` parameter would silently zero a per-layer metric."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import olcontrol
from olcontrol.harness import run_single

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_resolve(spans):
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"olcontrol.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"olcontrol.{layer}.{name}"


def test_methods_are_plain_functions(spans):
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"olcontrol.{layer}")
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for meth in methods:
                assert inspect.isfunction(vars(cls).get(meth)), f"olcontrol.{layer}.{cname}.{meth}"


def test_run_single_kind_is_second():
    assert list(inspect.signature(run_single).parameters)[1] == "kind"


def test_cli_import_stays_light():
    code = ("import sys, olcontrol.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(olcontrol.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
