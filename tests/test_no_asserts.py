"""No check in the package may vanish under `python -O`, so no module of
`src/ftagg` holds an assert statement."""

import ast
from pathlib import Path

import ftagg


def test_no_assert_statement_in_the_package():
    modules = sorted(Path(ftagg.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
