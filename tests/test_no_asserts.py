"""No module of the package guards a result with `assert`.

`python -O` strips assert statements, so an invariant that protects an
answer must raise a typed `BttwistError` (usually `InternalInvariant`).
This test parses every module and fails on an `assert` statement or a
`raise AssertionError`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bttwist"
MODULES = sorted(PACKAGE.glob("*.py"))


def _asserts(source):
    """Line numbers of the assert statements and AssertionError raises."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append(node.lineno)
    return sorted(out)


def test_the_guard_sees_both_forms():
    src = ("assert x\n"
           "raise AssertionError('y')\n"
           "raise AssertionError\n"
           "raise ValueError('z')\n")
    assert _asserts(src) == [1, 2, 3]


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"bttree.py", "quatalg.py", "padic.py", "enumerate.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_asserts(path):
    assert _asserts(path.read_text()) == []
