"""The library computes with ``Fraction`` and ``int`` only: no module of
``src/boolgames`` holds a float literal, calls ``float(...)``, or reads a
``math`` name other than the integer ``lcm``, ``gcd`` and ``prod``.  The
name ``float`` may still appear uncalled, as in the ``isinstance(...,
float)`` checks that reject float input."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "boolgames", "*.py")))
MATH_ALLOWED = {"lcm", "gcd", "prod"}


def inexact(tree):
    """(line, what) for every float literal, ``float(...)`` call and
    ``math`` name outside ``MATH_ALLOWED`` in the module ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % (node.value,)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...) call"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED):
            found.append((node.lineno, "math.%s" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "from math import %s" % a.name)
                         for a in node.names if a.name not in MATH_ALLOWED)
    return sorted(found)


def test_guard_finds_every_kind():
    tree = ast.parse("import math\nx = 0.5\ny = float('1')\n"
                     "z = math.sqrt(2) + math.gcd(4, 6)\n"
                     "from math import log, prod\n"
                     "ok = isinstance(x, float)\n")
    assert inexact(tree) == [(2, "literal 0.5"), (3, "float(...) call"),
                             (4, "math.sqrt"), (5, "from math import log")]


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_sources_are_exact(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    assert inexact(tree) == []


def test_every_module_is_checked():
    assert len(SOURCES) > 5
