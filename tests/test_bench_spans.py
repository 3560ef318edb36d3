"""bench/spans.py: every function the tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parent.parent / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("module,function", [(m, f) for m, f, _name, _attrs in spans.WRAPPED])
def test_wrapped_function_resolves(module, function):
    # install() looks each one up with getattr and fails on a missing name
    assert callable(getattr(importlib.import_module(f"simplexcut.{module}"), function))
