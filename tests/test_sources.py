"""Invariants of the library source itself."""

import ast
from pathlib import Path

import singlib

SOURCES = sorted(Path(singlib.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_library():
    # python -O strips assert statements, so a check that guards a result
    # must raise an error instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def test_no_private_imports_between_library_modules():
    # a module's underscore names are its own; another module that needs one
    # should get a public name instead
    found = [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("singlib"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_no_floats_in_library():
    # every number in the library is an int or a Fraction
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")
    ]
    assert found == []
