"""The documents stay true to the code: README.md's Python examples run,
and every test that PAPER.md's claim map names exists."""

import ast
import os
import re

import pytest

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
