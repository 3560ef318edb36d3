"""bench/spans.py: every function the tracer wraps still exists in the package,
and the arguments it reads sit where it reads them."""

import importlib
import importlib.util
import inspect
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


# the (position, keyword) that spans._arg is given for each argument it reads
@pytest.mark.parametrize(
    "module,function,position,keyword",
    [
        ("instances", "build_component", 0, "index"),
        ("reproduce", "run_criterion", 0, "name"),
        ("search", "min_non_opposite_cost", 1, "budget"),
    ],
)
def test_traced_argument_sits_at_its_position(module, function, position, keyword):
    # a reordered signature would mislabel spans without an error
    fn = getattr(importlib.import_module(f"simplexcut.{module}"), function)
    parameters = list(inspect.signature(fn).parameters.values())
    assert parameters[position].name == keyword
    assert parameters[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
