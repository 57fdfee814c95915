"""Static checks on the package source."""

import ast
from pathlib import Path

import linext


def test_no_assert_statements():
    # python -O strips assert statements, so checks must raise explicitly
    sources = sorted(Path(linext.__file__).parent.rglob("*.py"))
    assert any(path.name == "lattice.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
