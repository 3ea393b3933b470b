"""No module of the package guards a result with `assert`, and every error
it raises or catches is typed.

`python -O` strips assert statements, so an invariant that protects an
answer must raise a typed `BttwistError` (usually `InternalInvariant`).
This test parses every module and fails on an `assert` statement or a
`raise AssertionError`.

A built-in exception is untyped: the CLI reports only `BttwistError`s, so
one that escapes is a traceback, and a handler of `Exception` or
`ValueError` can turn a bug into a wrong answer or a wrong error.  So the
package catches no `Exception`, `BaseException` or `ValueError` and has no
bare `except`, and it raises a built-in exception only where
`ALLOWED_RAISES` says why that is a programming or usage error.
"""

import ast
from pathlib import Path

import pytest

from bttwist import errors
from bttwist.errors import BttwistError, NotInField

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bttwist"
MODULES = sorted(PACKAGE.glob("*.py"))

_IMMUTABLE = "immutable: the attribute protocol's error for a write or delete"
_ABSTRACT = "abstract method of the base class; every subtree overrides it"
_USAGE = "argparse prints it as a usage message and exits with code 2"
# (module, function, exception) -> why raising it is not an input error
ALLOWED_RAISES = {
    ("bttree.py", "Vertex.__hash__", "TypeError"):
        "vertices are compared by key(); hashing one is a programming error",
    ("bttree.py", "ConvexSubtree.contains", "NotImplementedError"): _ABSTRACT,
    ("bttree.py", "ConvexSubtree.tubular", "NotImplementedError"): _ABSTRACT,
    ("padic.py", "FieldElement._coerce", "TypeError"):
        "arithmetic with a non-number is a programming error",
    ("padic.py", "_Infinity.__neg__", "ArithmeticError"):
        "-oo is no valuation; only a programming error negates v(0)",
    ("padic.py", "Subfield.__setattr__", "AttributeError"): _IMMUTABLE,
    ("padic.py", "Subfield.__delattr__", "AttributeError"): _IMMUTABLE,
    ("quatalg.py", "QuaternionAlgebra.__setattr__", "AttributeError"):
        _IMMUTABLE,
    ("quatalg.py", "QuaternionAlgebra.__delattr__", "AttributeError"):
        _IMMUTABLE,
    ("cli.py", "_fraction", "argparse.ArgumentTypeError"): _USAGE,
    ("cli.py", "parse_matrix", "argparse.ArgumentTypeError"): _USAGE,
    ("cli.py", "parse_radius", "argparse.ArgumentTypeError"): _USAGE,
}
_CAUGHT_TOO_WIDE = {"Exception", "BaseException", "ValueError"}


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


def _is_typed(name):
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, BttwistError)


def _walk(source):
    """(node, the qualified name of its enclosing function or class) for
    every node below the module."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
            else:
                yield child, ".".join(scope)
                yield from visit(child, scope)
    return visit(ast.parse(source), [])


def _raised(node):
    exc = node.exc
    return ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)


def _untyped(source, module="m.py"):
    """(line, what) for each handler too wide and each raise of an untyped
    exception outside ALLOWED_RAISES."""
    out = []
    for node, scope in _walk(source):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            for exc in caught.elts if isinstance(caught, ast.Tuple) \
                    else [caught]:
                name = "bare" if exc is None else ast.unparse(exc)
                if exc is None or name in _CAUGHT_TOO_WIDE:
                    out.append((node.lineno, f"except {name}"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            name = _raised(node)
            if not _is_typed(name) and \
                    (module, scope, name) not in ALLOWED_RAISES:
                out.append((node.lineno, f"raise {name}"))
    return sorted(out)


def test_the_typed_error_guard_sees_every_form():
    src = ("try:\n    f()\nexcept ValueError:\n    pass\n"
           "try:\n    f()\nexcept (KeyError, Exception) as e:\n    pass\n"
           "try:\n    f()\nexcept:\n    pass\n"
           "try:\n    f()\nexcept (NotInField, ZeroDivisionError):\n"
           "    raise\n"
           "def g():\n    raise ValueError('x')\n"
           "class Vertex:\n    def __hash__(self):\n"
           "        raise TypeError\n"
           "raise NotInField('y')\n")
    assert _untyped(src) == [
        (3, "except ValueError"), (7, "except Exception"), (11, "except bare"),
        (18, "raise ValueError"), (21, "raise TypeError")]
    assert _untyped(src, "bttree.py")[-1] == (18, "raise ValueError")


def test_every_allowed_raise_is_still_raised():
    raised = {(path.name, scope, _raised(node))
              for path in MODULES for node, scope in _walk(path.read_text())
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert set(ALLOWED_RAISES) <= raised


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_untyped_errors(path):
    assert _untyped(path.read_text(), path.name) == []


def test_not_in_field_is_also_a_value_error():
    # code outside the package (perfbench's `_in_model`, for one) tells a
    # square class the model lacks by catching ValueError from `sqrt_of`
    assert issubclass(NotInField, BttwistError)
    assert issubclass(NotInField, ValueError)
