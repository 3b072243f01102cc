"""The documents stay true to the code: README.md's Python examples run,
every test that PAPER.md's claim map names exists, and every dotted name
that PAPER.md's code column or README.md's module table puts in backticks
(``module.name``, ``Class.method``) is a real attribute."""

import ast
import importlib
import os
import re

import pytest

import boolgames

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(ROOT, name)) as fh:
        return fh.read()


README_BLOCKS = re.findall(r"```python\n(.*?)```", read("README.md"), re.S)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("n", range(len(README_BLOCKS)))
def test_readme_python_block_runs(n):
    exec(compile(README_BLOCKS[n], "README.md block %d" % n, "exec"), {})


def test_claim_map_cites_existing_tests():
    cited = re.findall(r"tests/(\w+\.py)::(\w+)", read("PAPER.md"))
    assert cited
    missing = []
    for path, name in cited:
        tree = ast.parse(read(os.path.join("tests", path)))
        tests = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        if name not in tests:
            missing.append("%s::%s" % (path, name))
    assert missing == []


def table_cells(name, row, column):
    """Cell ``column`` of every table row of ``name`` that matches ``row``
    (``\\|`` inside a cell is not a separator)."""
    return [re.split(r"(?<!\\)\|", line)[column + 1]
            for line in read(name).splitlines() if re.match(row, line)]


CODE_CELLS = (table_cells("PAPER.md", r"\| \d+ \|", 2)
              + table_cells("README.md", r"\| `boolgames\.", 1))


def resolve(dotted):
    """The object a dotted name names: its head is a ``boolgames`` module or
    a name the package exports."""
    head, *rest = dotted.split(".")
    try:
        obj = importlib.import_module("boolgames." + head)
    except ModuleNotFoundError:
        obj = getattr(boolgames, head)
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_code_names_resolve():
    names = {name for cell in CODE_CELLS
             for name in re.findall(r"`(\w+(?:\.\w+)+)", cell)}
    assert len(names) > 10  # the pattern still finds the claim map's names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []
