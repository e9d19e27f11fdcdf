"""The package re-exports nothing: every name has one import path, its module."""

import ast
from pathlib import Path

INIT = Path(__file__).parents[1] / "src" / "polyoracle" / "__init__.py"


def test_package_init_holds_only_its_docstring():
    found = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(ast.parse(INIT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    assert not found, f"src/polyoracle/__init__.py re-exports or assigns: {found}"
