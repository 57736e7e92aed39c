"""Every name a package module imports is used in it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "corank"


def unused_imports(source):
    """Names bound by an import, at module level or inside a function, that
    the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_sees_an_unused_import():
    source = ("import os.path\nfrom json import dumps, loads as read\n"
              "def f():\n    from math import pi\n    return read\n__all__ = ['dumps']\n")
    assert unused_imports(source) == [(1, "os"), (4, "pi")]


def test_package_modules_use_every_import():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
