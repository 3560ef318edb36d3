"""The package's export list and its modules' imports."""

import ast
import types
from pathlib import Path

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


def test_modules_use_their_imports():
    # __init__ imports to re-export; every other module reads each name
    # it imports
    unused = []
    for path in sorted(Path(simplexcut.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name != "annotations" and name not in used
        ]
    assert unused == []
