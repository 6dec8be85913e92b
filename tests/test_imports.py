"""What the package imports: no unused name, and no heavy module at start-up.

Each module under src/hslab/ and tests/ is parsed with ast: every name an
import statement binds, anywhere in the module, must be read somewhere in
it as a plain name (a call, an attribute base, a decorator, an annotation).
The package's __init__.py is exempt: its imports are the public re-exports.

`import hslab` runs in a fresh interpreter without site (-S), so that no
path-configuration file preloads a module: it may add to sys.modules the
standard-library modules of STDLIB_IMPORTS and what they import, and no
other.  A new import of a heavy module fails by that module's name.
"""

import ast
import os
import subprocess
import sys

import pytest

import hslab

SRC = os.path.dirname(os.path.abspath(hslab.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
REEXPORTS = os.path.join(SRC, "__init__.py")

# The standard-library modules src/hslab imports when `import hslab` runs
# (the CLI's argparse, os and re load with hslab.cli only).
STDLIB_IMPORTS = ("__future__", "fractions", "functools", "itertools", "json",
                  "math", "typing")
# Each would cost start-up time every command pays: dataclasses imports
# inspect, which imports dis, ast, tokenize and linecache.
NOT_AT_IMPORT = ("dataclasses", "inspect", "argparse")

_ADDED = """import sys
before = set(sys.modules)
import %s
print(" ".join(sorted(set(sys.modules) - before)))
"""


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


def _added_by(modules):
    """The names a fresh interpreter without site adds to sys.modules when
    it imports modules, a comma-separated list."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-S", "-c", _ADDED % modules],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return set(out.split())


def test_import_hslab_loads_only_the_allowed_standard_library():
    added = {m for m in _added_by("hslab")
             if m != "hslab" and not m.startswith("hslab.")}
    assert sorted(added & set(NOT_AT_IMPORT)) == []
    assert sorted(added - _added_by(", ".join(STDLIB_IMPORTS))) == []
    # the allowlist stays tight: hslab imports each of its modules
    assert sorted(set(STDLIB_IMPORTS) - added) == []
