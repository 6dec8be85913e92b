"""No module of the package or of its tests imports a name it never uses.

Each module under src/hslab/ and tests/ is parsed with ast: every name an
import statement binds, anywhere in the module, must be read somewhere in
it as a plain name (a call, an attribute base, a decorator, an annotation).
The package's __init__.py is exempt: its imports are the public re-exports.
"""

import ast
import os

import pytest

import hslab

SRC = os.path.dirname(os.path.abspath(hslab.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
REEXPORTS = os.path.join(SRC, "__init__.py")


def _modules():
    for folder in (SRC, TESTS):
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if name.endswith(".py") and path != REEXPORTS:
                yield path


def unused_imports(source):
    """Sorted names bound by an import in source and never read in it."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    source = ("import os, sys as system\nfrom a.b import c, d as e\n"
              "import x.y\nfrom __future__ import annotations\n"
              "@c\ndef f(v: e) -> None:\n    return os.sep + x.y\n")
    assert unused_imports(source) == ["system"]


@pytest.mark.parametrize("path", list(_modules()), ids=lambda p: "%s/%s" % (
    os.path.basename(os.path.dirname(p)), os.path.basename(p)))
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
