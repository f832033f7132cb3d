"""Checks on the library's source text."""

import ast
import os

import fatcob

PACKAGE = os.path.dirname(os.path.abspath(fatcob.__file__))


def parsed_modules():
    """``(relative path, ast)`` of every module of the package."""
    out = []
    for folder, _, names in os.walk(PACKAGE):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                out.append((os.path.relpath(path, PACKAGE),
                            ast.parse(fh.read(), path)))
    return out


def test_no_assert_statement_in_the_library():
    # ``python -O`` strips an assert, so every invariant of the library
    # raises a FatcobError subclass instead
    modules = parsed_modules()
    found = ["%s:%d" % (path, node.lineno) for path, tree in modules
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert modules
    assert found == []


def test_one_function_calls_solve():
    # every lift correction goes through one routine, so linalg.solve
    # is called, as an attribute or by a bare name, from one function
    callers = set()
    for path, tree in parsed_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "solve"
                        or isinstance(node.func, ast.Name)
                        and node.func.id == "solve"):
                    callers.add("%s:%s" % (path, fn.name))
    assert callers == {"homology.py:_absorb"}
