"""No true division in the package outside ``exactla.div``.

``int / int`` is a float, so every quotient of scalars goes through the one
exact-division helper; this scan finds any ``/`` or ``/=`` elsewhere.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gtables"


def _true_divisions(path, root=SRC):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "exactla.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "div":
                allowed = {id(n) for n in ast.walk(node)}
    return ["%s:%d" % (path.relative_to(root), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div) and id(node) not in allowed]


def test_no_true_division_outside_div():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _true_divisions(path)
    assert found == []


def test_scan_sees_division(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(a, b):\n    a /= b\n    return a / b\n")
    assert _true_divisions(path, tmp_path) == ["mod.py:2", "mod.py:3"]
