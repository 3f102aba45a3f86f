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
