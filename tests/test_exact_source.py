"""The library computes exactly: no float enters its source.

In Python 3, int / int is a float, so a `/` between two ints silently
leaves exact arithmetic; Fraction(p, q) is the exact quotient.
"""

import ast
from pathlib import Path

import troptoric


def float_sites(source: str):
    """(line, what) for each float literal, float(...) call and / operator."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...) call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/ operator"


def test_float_sites_are_found():
    source = "a = 0.5\nb = float(3)\nc = 1 / 2\nc /= 2\nd = 7 // 2\ne = isinstance(d, float)\n"
    assert sorted(float_sites(source)) == [
        (1, "float literal"),
        (2, "float(...) call"),
        (3, "/ operator"),
        (4, "/ operator"),
    ]


def test_library_source_has_no_float_sites():
    modules = sorted(Path(troptoric.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    sites = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == []
