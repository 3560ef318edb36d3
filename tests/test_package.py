"""The package's export list."""

import types

import simplexcut


def test_star_import_binds_exports_only():
    namespace = {}
    exec("from simplexcut import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(simplexcut.__all__)
    assert "optimize_params" in namespace and "io" not in namespace
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
        assert getattr(simplexcut, name) is value
