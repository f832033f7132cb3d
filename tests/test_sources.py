"""Checks on the library's source text."""

import ast
import os

import fatcob

PACKAGE = os.path.dirname(os.path.abspath(fatcob.__file__))


def test_no_assert_statement_in_the_library():
    # ``python -O`` strips an assert, so every invariant of the library
    # raises a FatcobError subclass instead
    found, parsed = [], 0
    for folder, _, names in os.walk(PACKAGE):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            parsed += 1
            found += ["%s:%d" % (os.path.relpath(path, PACKAGE), node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert parsed
    assert found == []
