"""Every name that idcodes exports is used somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import idcodes

PACKAGE = Path(idcodes.__file__).parent

# Exports with no use in the package, each with its reason. The list must
# shrink when one gains a use.
UNUSED = {
    # The paper's generalised Bondy theorem; the census of the exceptional
    # lists is to compare its size with a brute-force minimum.
    "greedy_separating",
}


class _Uses(ast.NodeVisitor):
    """The names a module loads, as a bare name or as an attribute,
    outside the def or class of the same name."""

    def __init__(self) -> None:
        self.inside: list[str] = []
        self.names: set[str] = set()

    def _scope(self, node: ast.FunctionDef | ast.ClassDef) -> None:
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _use(self, node: ast.expr, name: str) -> None:
        if isinstance(node.ctx, ast.Load) and name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node, node.attr)
        self.generic_visit(node)


def package_uses() -> set[str]:
    uses = _Uses()
    for path in sorted(PACKAGE.glob("*.py")):
        uses.visit(ast.parse(path.read_text(), str(path)))
    return uses.names


def test_every_export_is_used_in_the_package():
    unused = set(idcodes.__all__) - package_uses()
    assert unused == UNUSED


def test_a_use_inside_its_own_definition_does_not_count():
    uses = _Uses()
    uses.visit(ast.parse(
        "def f(n):\n    return f(n - 1) + g.h\n\nclass K:\n    x = K\n"
    ))
    assert uses.names == {"n", "g", "h"}
