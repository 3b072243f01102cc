"""The documents stay true to the code: README.md's Python examples run,
every test that PAPER.md's claim map names exists, every dotted name
that PAPER.md's code column or README.md's module table puts in backticks
(``module.name``, ``Class.method``), and every one headed by a
``boolgames`` module anywhere in either file, is a real attribute, and
README.md's flag table states every fixed command-line bound with its
value."""

import ast
import importlib
import os
import pkgutil
import re

import pytest

import boolgames
from boolgames import cli, reductions

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
MODULES = {m.name for m in pkgutil.iter_modules(boolgames.__path__)}
DOTTED = r"`(\w+(?:\.\w+)+)"


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
    names = {name for cell in CODE_CELLS for name in re.findall(DOTTED, cell)}
    assert len(names) > 10  # the pattern still finds the claim map's names
    prose = {name for doc in ("README.md", "PAPER.md")
             for name in re.findall(DOTTED, read(doc))
             if name.split(".")[0] in MODULES}
    assert len(prose) > 20  # and the names in prose, headed by a module
    names |= prose
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


# each fixed command-line bound and the flag-table row that states it
BOUNDS = [("encode equal", "ENCODE_WIDTH_CAP", cli.ENCODE_WIDTH_CAP),
          ("encode square", "SQUARE_K_CAP", cli.SQUARE_K_CAP),
          ("encode oneof", "ENCODE_NAMES_CAP", cli.ENCODE_NAMES_CAP),
          ("verify cover-matrix", "COVER_MATRIX_CAP",
           reductions.COVER_MATRIX_CAP),
          ("reduce nexptm", "WITNESS_SIDE_CAP", reductions.WITNESS_SIDE_CAP),
          ("verify witness", "WITNESS_SIDE_CAP", reductions.WITNESS_SIDE_CAP)]


def test_bounds_list_is_complete():
    # a new bound in cli is added here, and so to the flag table
    names = {name for name in dir(cli) if name.endswith("_CAP")}
    assert names <= {name for _, name, _ in BOUNDS}


@pytest.mark.parametrize("command,name,value", BOUNDS)
def test_flag_table_states_each_bound(command, name, value):
    cells = table_cells("README.md", r"\| `%s`" % command, 1)
    assert len(cells) == 1
    assert "at most %d" % value in cells[0], name
