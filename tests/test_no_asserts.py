"""Library invariants must survive ``python -O``: no ``assert`` statements
and no ``raise AssertionError`` in ``src/coverdiam``."""

import ast
from pathlib import Path

import coverdiam

SOURCES = sorted(Path(coverdiam.__file__).parent.glob("*.py"))


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_asserts():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not found, f"assert or raise AssertionError at {found}"
