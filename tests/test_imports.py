"""Every name a module binds with ``from ... import`` is used in that module.

Package ``__init__.py`` files are skipped: they import names to re-export
them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gtables"


def _unused_from_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used:
                    out.append("%s:%d %s" % (path.relative_to(SRC), node.lineno,
                                             name))
    return out


def test_no_unused_from_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_from_imports(path)
    assert unused == []
