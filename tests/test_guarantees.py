"""The package enforces its guarantees with real checks: no `assert`,
which `python -O` strips, stands in for one."""

from __future__ import annotations

import ast
from pathlib import Path

import idcodes


def _asserts(tree: ast.AST) -> list[int]:
    """Line numbers of assert statements and of raise AssertionError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_assert_finder_sees_both_forms():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError('y')\n"
        "raise AssertionError\n"
        "raise ValueError('z')\n"
    )
    assert _asserts(tree) == [1, 2, 3]


def test_package_has_no_asserts():
    package = Path(idcodes.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _asserts(ast.parse(path.read_text())))
    }
    assert found == {}
