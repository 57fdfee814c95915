"""Static checks on the package source."""

import ast
from pathlib import Path

import linext

SOURCES = sorted(Path(linext.__file__).parent.rglob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips assert statements, so checks must raise explicitly
    assert any(path.name == "lattice.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_free_bit_scan(node) -> bool:
    """``full & ~mask``, in either order: every element outside a set."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(
        isinstance(a, ast.Name)
        and a.id == "full"
        and isinstance(b, ast.UnaryOp)
        and isinstance(b.op, ast.Invert)
        for a, b in ((node.left, node.right), (node.right, node.left))
    )


def test_no_free_bit_scans():
    # lattice passes walk the addable sets of the one successor kernel
    # instead of testing every element outside the ideal
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if path.name == "lattice.py" and _is_free_bit_scan(node)
    ]
    assert found == []


def test_free_bit_scan_check_sees_the_pattern():
    tree = ast.parse("full & ~mask\n~ideal & full\nlater & ~new\nfull & mask")
    found = [_is_free_bit_scan(stmt.value) for stmt in tree.body]
    assert found == [True, True, False, False]
