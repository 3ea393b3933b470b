"""No module of the package imports a name it never reads.

pyflakes, flake8 and ruff are not part of the toolchain, so this test does
their one job that matters here with `ast`: a module-level import must be
read somewhere in the module, and an import inside a function must be read
inside that function.  Names in string annotations count as read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bttwist"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _reads(scope) -> set:
    """Every name read in the scope, nested scopes and string annotations
    included."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        ann = []
        if isinstance(node, ast.arg):
            ann = [node.annotation]
        elif isinstance(node, FUNCTIONS):
            ann = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            ann = [node.annotation]
        for a in ann:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                out |= _reads(ast.parse(a.value, mode="eval"))
    return out


def _own_imports(scope):
    """The import statements of a scope, not of the functions inside it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS + (ast.Lambda,)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source) -> list:
    """(line, name) for each imported name its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    out = []
    for scope in scopes:
        reads = _reads(scope)
        out.extend((node.lineno, name) for node in _own_imports(scope)
                   for name in _bound(node) if name not in reads)
    return sorted(out)


def test_the_check_sees_both_scopes():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from fractions import Fraction as F\n"
           "from . import padic\n"
           "def f(x: 'Thing') -> 'F':\n"
           "    from .branch import branch_member\n"
           "    from .twisted import VertexOrder, Thing\n"
           "    return VertexOrder(os.sep)\n"
           "def g():\n"
           "    return padic.p\n")
    assert unused_imports(src) == [(2, "sys"), (6, "branch_member")]


def test_a_local_import_read_only_elsewhere_is_unused():
    src = ("def f():\n"
           "    import json\n"
           "    return 1\n"
           "def g():\n"
           "    return json.dumps(1)\n")
    assert unused_imports(src) == [(2, "json")]


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"padic.py", "bttree.py", "twisted.py", "verify.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
