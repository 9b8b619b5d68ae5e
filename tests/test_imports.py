"""Every name a ``cyclecap`` module imports is used there or re-exported in
its ``__all__``, so a deletion cannot leave an import behind; and none is a
``_``-prefixed name of another package module, so what modules share is
public."""

import ast
from pathlib import Path

import cyclecap

PACKAGE = Path(cyclecap.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind that nothing in it reads and its
    ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names a module imports from a package module, by a
    relative import or by the package's name."""
    tree = ast.parse(source)
    return sorted(f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == PACKAGE.name)
                  for alias in node.names if alias.name.startswith("_"))


def test_private_imports_are_found():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .tensor import _record, add\nfrom cyclecap.data import _usable\n"
              "from . import _hidden\n")
    assert private_imports(source) == ["_hidden (line 5)", "_record (line 3)",
                                       "_usable (line 4)"]


def test_no_module_imports_a_private_name():
    found = {path.name: private for path in sorted(PACKAGE.glob("*.py"))
             if (private := private_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
